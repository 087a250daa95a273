//! Metrics registry: named counters and log-linear-bucket histograms.
//!
//! Handles returned by [`counter`]/[`histogram`] are `&'static` — the
//! registry interns each name once (a `Box::leak` per distinct metric;
//! metric names are a small fixed vocabulary, so this is a bounded,
//! process-lifetime allocation). The `counter!`/`histogram!` macros cache
//! the handle in a per-call-site `OnceLock`, so steady-state updates are
//! a single relaxed atomic op with no lock and no lookup.
//!
//! [`reset`] zeroes values but keeps the interned handles valid, which is
//! what lets call sites hold `&'static` references across resets and
//! lets tests scope their assertions with [`snapshot`] deltas.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    const fn new() -> Counter {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Zeroes the counter. Meant for explicit scoping (e.g. a cache
    /// registry's `reset()`); concurrent `inc`s racing a reset land on
    /// whichever side the atomics order them.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Bucket count: 8 linear buckets for values 0–7, then 8 sub-buckets per
/// octave across the remaining 61 octaves of `u64`.
pub const N_BUCKETS: usize = 8 + 61 * 8;

/// Bucket index for `v`: exact below 8, then log-linear with 8
/// sub-buckets per power of two (relative bucket width ≤ 1/8).
pub fn bucket_index(v: u64) -> usize {
    if v < 8 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as usize;
        let octave = msb - 3;
        let sub = ((v >> octave) & 7) as usize;
        8 + octave * 8 + sub
    }
}

/// Smallest value landing in bucket `index`.
pub fn bucket_lower(index: usize) -> u64 {
    if index < 8 {
        index as u64
    } else {
        let octave = (index - 8) / 8;
        let sub = ((index - 8) % 8) as u64;
        (8 + sub) << octave
    }
}

/// Largest value landing in bucket `index`.
pub fn bucket_upper(index: usize) -> u64 {
    if index < 8 {
        index as u64
    } else {
        let octave = (index - 8) / 8;
        // `lower - 1` first: the top bucket's `lower + width` is 2^64.
        (bucket_lower(index) - 1) + (1u64 << octave)
    }
}

/// A histogram over `u64` samples with log-linear buckets.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some((bucket_lower(i), n))
                })
                .collect(),
        }
    }
}

/// A point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of samples (wraps only past `u64::MAX` total).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Non-empty buckets as `(lower_bound, count)`, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile `q ∈ [0, 1]`: the lower bound of the bucket
    /// where the cumulative count crosses `q·count` (≤ 12.5% relative
    /// error from bucket width).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(lower, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return lower;
            }
        }
        self.max
    }

    /// The `(p50, p95, p99)` estimates exposed by the run manifest and
    /// the Prometheus `_quantile` gauge lines.
    pub fn percentiles(&self) -> (u64, u64, u64) {
        (self.quantile(0.5), self.quantile(0.95), self.quantile(0.99))
    }
}

impl serde::Serialize for HistogramSnapshot {
    fn to_content(&self) -> serde::Content {
        serde::Content::Map(vec![
            ("count".into(), serde::Content::U64(self.count)),
            ("sum".into(), serde::Content::U64(self.sum)),
            ("min".into(), serde::Content::U64(self.min)),
            ("max".into(), serde::Content::U64(self.max)),
            ("mean".into(), serde::Content::F64(self.mean())),
            ("p50".into(), serde::Content::U64(self.quantile(0.5))),
            ("p95".into(), serde::Content::U64(self.quantile(0.95))),
            ("p99".into(), serde::Content::U64(self.quantile(0.99))),
            (
                "buckets".into(),
                serde::Content::Seq(
                    self.buckets
                        .iter()
                        .map(|&(lower, n)| {
                            serde::Content::Seq(vec![
                                serde::Content::U64(lower),
                                serde::Content::U64(n),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

struct Registry {
    counters: Mutex<BTreeMap<String, &'static Counter>>,
    histograms: Mutex<BTreeMap<String, &'static Histogram>>,
    help: Mutex<BTreeMap<String, String>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(BTreeMap::new()),
        histograms: Mutex::new(BTreeMap::new()),
        help: Mutex::new(BTreeMap::new()),
    })
}

/// Attaches Prometheus `# HELP` text to the metric named `name` (first
/// writer wins; help survives [`reset`]). The text may contain any
/// characters — the exposition escapes backslashes and newlines per the
/// Prometheus text format.
pub fn describe(name: &str, help: &str) {
    registry()
        .help
        .lock()
        .expect("metrics registry poisoned")
        .entry(name.to_string())
        .or_insert_with(|| help.to_string());
}

/// Escapes a `# HELP` line payload: `\` → `\\`, newline → `\n` (the only
/// escapes the Prometheus text format defines for help text).
pub fn escape_help(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes a label value: `\` → `\\`, `"` → `\"`, newline → `\n`.
pub fn escape_label_value(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// The counter registered under `name`, interning it on first use.
/// Prefer the `counter!` macro, which caches this lookup per call site;
/// call this directly only for dynamic names (e.g. per-strategy).
pub fn counter(name: &str) -> &'static Counter {
    let mut map = registry()
        .counters
        .lock()
        .expect("metrics registry poisoned");
    if let Some(c) = map.get(name) {
        return c;
    }
    let c: &'static Counter = Box::leak(Box::new(Counter::new()));
    map.insert(name.to_string(), c);
    c
}

/// The histogram registered under `name`, interning it on first use.
pub fn histogram(name: &str) -> &'static Histogram {
    let mut map = registry()
        .histograms
        .lock()
        .expect("metrics registry poisoned");
    if let Some(h) = map.get(name) {
        return h;
    }
    let h: &'static Histogram = Box::leak(Box::new(Histogram::new()));
    map.insert(name.to_string(), h);
    h
}

/// A point-in-time copy of every registered metric.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// `# HELP` text by metric name (only described metrics appear).
    pub help: BTreeMap<String, String>,
}

impl MetricsSnapshot {
    /// The counter's value in this snapshot (0 if never registered).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// How much `name` grew since `earlier` was taken. Saturates at 0 if
    /// a [`reset`] happened in between.
    pub fn counter_delta(&self, earlier: &MetricsSnapshot, name: &str) -> u64 {
        self.counter(name).saturating_sub(earlier.counter(name))
    }

    /// Renders every metric in Prometheus text exposition format.
    /// Metric names are sanitized (`[^a-zA-Z0-9_:]` → `_`); help text
    /// and label values are escaped per the format (backslash, newline,
    /// and — for label values — double quote). Histograms additionally
    /// expose `p50`/`p95`/`p99` estimates as `{name}_quantile` gauge
    /// lines labeled `quantile="0.5"` etc.
    pub fn to_prometheus(&self) -> String {
        fn sanitize(name: &str) -> String {
            name.chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                        c
                    } else {
                        '_'
                    }
                })
                .collect()
        }
        let mut out = String::new();
        let help_line = |raw_name: &str, sanitized: &str, out: &mut String| {
            if let Some(help) = self.help.get(raw_name) {
                out.push_str(&format!("# HELP {sanitized} {}\n", escape_help(help)));
            }
        };
        for (name, value) in &self.counters {
            let sname = sanitize(name);
            help_line(name, &sname, &mut out);
            out.push_str(&format!("# TYPE {sname} counter\n{sname} {value}\n"));
        }
        for (name, h) in &self.histograms {
            let sname = sanitize(name);
            help_line(name, &sname, &mut out);
            out.push_str(&format!("# TYPE {sname} histogram\n"));
            let mut cumulative = 0u64;
            for &(lower, n) in &h.buckets {
                cumulative += n;
                let le = bucket_upper(bucket_index(lower));
                out.push_str(&format!("{sname}_bucket{{le=\"{le}\"}} {cumulative}\n"));
            }
            out.push_str(&format!("{sname}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{sname}_sum {}\n", h.sum));
            out.push_str(&format!("{sname}_count {}\n", h.count));
            let (p50, p95, p99) = h.percentiles();
            out.push_str(&format!("# TYPE {sname}_quantile gauge\n"));
            for (q, v) in [("0.5", p50), ("0.95", p95), ("0.99", p99)] {
                out.push_str(&format!(
                    "{sname}_quantile{{quantile=\"{}\"}} {v}\n",
                    escape_label_value(q)
                ));
            }
        }
        out
    }
}

/// Validates Prometheus text-exposition output: comment lines must be
/// well-formed `# HELP`/`# TYPE` lines with legal escapes, sample lines
/// must parse as `name[{labels}] value` with a legal metric name,
/// correctly escaped label values, and a numeric value, and every sample
/// must belong to a previously `# TYPE`-declared family (histogram
/// samples may use the `_bucket`/`_sum`/`_count` suffixes). Returns the
/// first violation found.
pub fn validate_prometheus_text(text: &str) -> Result<(), String> {
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        match chars.next() {
            Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
            _ => return false,
        }
        chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    // Only `\\` and `\n` (help) or `\\`, `\n`, `\"` (label values) are
    // legal escape sequences.
    fn valid_escapes(text: &str, allow_quote: bool) -> bool {
        let mut chars = text.chars();
        while let Some(c) = chars.next() {
            if c == '\\' {
                match chars.next() {
                    Some('\\') | Some('n') => {}
                    Some('"') if allow_quote => {}
                    _ => return false,
                }
            }
        }
        true
    }
    let mut declared: BTreeMap<String, String> = BTreeMap::new();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let rest = comment.trim_start();
            if let Some(help) = rest.strip_prefix("HELP ") {
                let (name, payload) = help
                    .split_once(' ')
                    .ok_or_else(|| format!("line {lineno}: HELP without payload"))?;
                if !valid_name(name) {
                    return Err(format!("line {lineno}: bad HELP metric name {name:?}"));
                }
                if !valid_escapes(payload, false) {
                    return Err(format!("line {lineno}: illegal escape in HELP text"));
                }
            } else if let Some(decl) = rest.strip_prefix("TYPE ") {
                let (name, kind) = decl
                    .split_once(' ')
                    .ok_or_else(|| format!("line {lineno}: TYPE without kind"))?;
                if !valid_name(name) {
                    return Err(format!("line {lineno}: bad TYPE metric name {name:?}"));
                }
                if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind) {
                    return Err(format!("line {lineno}: unknown TYPE kind {kind:?}"));
                }
                declared.insert(name.to_string(), kind.to_string());
            } else {
                return Err(format!("line {lineno}: comment is neither HELP nor TYPE"));
            }
            continue;
        }
        // Sample line: name[{labels}] value
        let (name_labels, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {lineno}: sample without value"))?;
        if value.parse::<f64>().is_err() && value != "+Inf" && value != "-Inf" && value != "NaN" {
            return Err(format!("line {lineno}: non-numeric value {value:?}"));
        }
        let name = match name_labels.split_once('{') {
            None => name_labels,
            Some((name, labels)) => {
                let labels = labels
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {lineno}: unterminated label set"))?;
                // Parse `key="value",...` respecting escapes.
                let mut rest = labels;
                while !rest.is_empty() {
                    let (key, after_eq) = rest
                        .split_once("=\"")
                        .ok_or_else(|| format!("line {lineno}: label without =\" in {labels:?}"))?;
                    if !valid_name(key) {
                        return Err(format!("line {lineno}: bad label name {key:?}"));
                    }
                    // Find the closing unescaped quote.
                    let mut end = None;
                    let bytes = after_eq.as_bytes();
                    let mut i = 0;
                    while i < bytes.len() {
                        match bytes[i] {
                            b'\\' => i += 2,
                            b'"' => {
                                end = Some(i);
                                break;
                            }
                            _ => i += 1,
                        }
                    }
                    let end =
                        end.ok_or_else(|| format!("line {lineno}: unterminated label value"))?;
                    if !valid_escapes(&after_eq[..end], true) {
                        return Err(format!("line {lineno}: illegal escape in label value"));
                    }
                    rest = after_eq[end + 1..].trim_start_matches(',');
                }
                name
            }
        };
        if !valid_name(name) {
            return Err(format!("line {lineno}: bad metric name {name:?}"));
        }
        // Family membership: exact gauge/counter name, or histogram
        // suffixes on a declared histogram.
        let known = declared.contains_key(name)
            || ["_bucket", "_sum", "_count"].iter().any(|suffix| {
                name.strip_suffix(suffix)
                    .is_some_and(|base| declared.get(base).map(String::as_str) == Some("histogram"))
            });
        if !known {
            return Err(format!(
                "line {lineno}: sample {name:?} has no preceding # TYPE declaration"
            ));
        }
    }
    Ok(())
}

impl serde::Serialize for MetricsSnapshot {
    fn to_content(&self) -> serde::Content {
        serde::Content::Map(vec![
            (
                "counters".into(),
                serde::Content::Map(
                    self.counters
                        .iter()
                        .map(|(name, &v)| (name.clone(), serde::Content::U64(v)))
                        .collect(),
                ),
            ),
            (
                "histograms".into(),
                serde::Content::Map(
                    self.histograms
                        .iter()
                        .map(|(name, h)| (name.clone(), serde::Serialize::to_content(h)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Snapshots every registered metric.
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry();
    let counters = reg
        .counters
        .lock()
        .expect("metrics registry poisoned")
        .iter()
        .map(|(name, c)| (name.clone(), c.get()))
        .collect();
    let histograms = reg
        .histograms
        .lock()
        .expect("metrics registry poisoned")
        .iter()
        .map(|(name, h)| (name.clone(), h.snapshot()))
        .collect();
    let help = reg.help.lock().expect("metrics registry poisoned").clone();
    MetricsSnapshot {
        counters,
        histograms,
        help,
    }
}

/// Zeroes every registered metric. Interned handles (and cached macro
/// call sites) remain valid.
pub fn reset() {
    let reg = registry();
    for c in reg
        .counters
        .lock()
        .expect("metrics registry poisoned")
        .values()
    {
        c.reset();
    }
    for h in reg
        .histograms
        .lock()
        .expect("metrics registry poisoned")
        .values()
    {
        h.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Metric names are globally shared; each test uses unique names and
    // asserts on snapshot deltas so parallel test scheduling (and a
    // concurrent `reset` from another test) cannot break them.

    #[test]
    fn counters_intern_once_and_accumulate() {
        let a = counter("metrics_test.intern");
        let b = counter("metrics_test.intern");
        assert!(std::ptr::eq(a, b), "same handle for same name");
        let before = a.get();
        a.inc();
        a.add(4);
        assert_eq!(a.get() - before, 5);
    }

    #[test]
    fn snapshot_reflects_registered_values() {
        counter("metrics_test.snap").add(7);
        histogram("metrics_test.hist").record(100);
        let snap = snapshot();
        assert!(snap.counter("metrics_test.snap") >= 7);
        assert!(snap.histograms["metrics_test.hist"].count >= 1);
        assert_eq!(snap.counter("metrics_test.never_registered"), 0);
    }

    #[test]
    fn histogram_stats_cover_samples() {
        let h = histogram("metrics_test.stats");
        for v in [1u64, 10, 100, 1000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 4);
        assert_eq!(snap.sum, 1111);
        assert_eq!(snap.min, 1);
        assert_eq!(snap.max, 1000);
        assert!((snap.mean() - 277.75).abs() < 1e-9);
        // Quantiles return bucket lower bounds: within one bucket width.
        let p50 = snap.quantile(0.5);
        assert!(p50 <= 10 && bucket_upper(bucket_index(p50)) >= 10);
    }

    #[test]
    fn empty_histogram_is_well_defined() {
        let snap = histogram("metrics_test.empty").snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.quantile(0.99), 0);
        assert_eq!(snap.mean(), 0.0);
    }

    #[test]
    fn bucket_index_matches_documented_boundaries() {
        // Exact below 8.
        for v in 0..8u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower(v as usize), v);
            assert_eq!(bucket_upper(v as usize), v);
        }
        // First octave: one value per bucket.
        assert_eq!(bucket_index(8), 8);
        assert_eq!(bucket_index(15), 15);
        // Second octave: width 2.
        assert_eq!(bucket_index(16), 16);
        assert_eq!(bucket_index(17), 16);
        assert_eq!(bucket_index(18), 17);
        // Top of the range stays in bounds.
        assert_eq!(bucket_index(u64::MAX), N_BUCKETS - 1);
        assert_eq!(bucket_upper(N_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn prometheus_rendering_is_parseable_shape() {
        counter("metrics_test.prom").add(3);
        histogram("metrics_test.prom_hist").record(42);
        let text = snapshot().to_prometheus();
        assert!(text.contains("# TYPE metrics_test_prom counter"));
        assert!(text.contains("metrics_test_prom_hist_bucket{le=\"+Inf\"}"));
        assert!(text.contains("metrics_test_prom_hist_count"));
        // Sanitized names only.
        for line in text.lines() {
            if let Some(name) = line.split_whitespace().next() {
                if !line.starts_with('#') {
                    assert!(
                        name.chars().all(|c| c.is_ascii_alphanumeric()
                            || ['_', ':', '{', '}', '=', '"', '+', '.'].contains(&c)),
                        "unsanitized line: {line}"
                    );
                }
            }
        }
    }

    #[test]
    fn counter_delta_scopes_assertions() {
        let before = snapshot();
        counter("metrics_test.delta").add(9);
        let after = snapshot();
        assert!(after.counter_delta(&before, "metrics_test.delta") >= 9);
    }

    #[test]
    fn quantiles_on_exact_buckets_are_exact() {
        // Values below 8 land in single-value buckets, so the quantile
        // estimate is exact there: no bucket-width slack to hide bugs.
        let h = histogram("metrics_test.q_exact");
        for v in [1u64, 2, 3, 4] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.quantile(0.0), 1, "q=0 is the min bucket");
        assert_eq!(snap.quantile(0.25), 1);
        assert_eq!(snap.quantile(0.5), 2);
        assert_eq!(snap.quantile(0.75), 3);
        assert_eq!(snap.quantile(1.0), 4);
        assert_eq!(snap.percentiles(), (2, 4, 4));
    }

    #[test]
    fn quantiles_at_bucket_boundaries_return_the_lower_bound() {
        // 16 and 17 share a bucket (second octave, width 2): the
        // estimate for both is the bucket's lower bound, 16.
        assert_eq!(bucket_index(16), bucket_index(17));
        let h = histogram("metrics_test.q_boundary");
        h.record(17);
        assert_eq!(h.snapshot().quantile(0.5), 16);

        // 15 → 16 crosses a bucket boundary; each keeps its own bucket.
        let h2 = histogram("metrics_test.q_boundary2");
        h2.record(15);
        h2.record(16);
        let snap = h2.snapshot();
        assert_eq!(snap.quantile(0.5), 15);
        assert_eq!(snap.quantile(1.0), 16);
    }

    #[test]
    fn quantile_rank_rounding_skews_high_not_low() {
        // With 3 samples, q=0.5 has rank ceil(1.5)=2: the middle sample,
        // never the lower neighbor.
        let h = histogram("metrics_test.q_rank");
        for v in [1u64, 2, 3] {
            h.record(v);
        }
        assert_eq!(h.snapshot().quantile(0.5), 2);
        // Out-of-range q clamps instead of panicking.
        assert_eq!(h.snapshot().quantile(-1.0), 1);
        assert_eq!(h.snapshot().quantile(2.0), 3);
    }

    #[test]
    fn quantiles_of_heavy_tail_land_within_one_bucket() {
        let h = histogram("metrics_test.q_tail");
        for _ in 0..99 {
            h.record(10);
        }
        h.record(1_000_000);
        let snap = h.snapshot();
        assert_eq!(snap.quantile(0.5), bucket_lower(bucket_index(10)));
        assert_eq!(snap.quantile(0.99), bucket_lower(bucket_index(10)));
        // p100 reaches the outlier's bucket.
        let p100 = snap.quantile(1.0);
        assert_eq!(p100, bucket_lower(bucket_index(1_000_000)));
        // Relative error bound from bucket width: ≤ 12.5%.
        assert!((1_000_000 - p100) as f64 / 1_000_000.0 <= 0.125);
    }

    #[test]
    fn prometheus_output_has_quantile_gauges_and_help() {
        describe(
            "metrics_test.q_prom",
            "latency in micros\nsecond line \\ end",
        );
        let h = histogram("metrics_test.q_prom");
        for v in [1u64, 2, 3, 4] {
            h.record(v);
        }
        let text = snapshot().to_prometheus();
        assert!(
            text.contains("# HELP metrics_test_q_prom latency in micros\\nsecond line \\\\ end"),
            "help line missing or unescaped:\n{text}"
        );
        assert!(text.contains("# TYPE metrics_test_q_prom_quantile gauge"));
        for q in ["0.5", "0.95", "0.99"] {
            assert!(
                text.contains(&format!("metrics_test_q_prom_quantile{{quantile=\"{q}\"}}")),
                "missing {q} quantile line:\n{text}"
            );
        }
        validate_prometheus_text(&text).expect("full dump conforms");
    }

    #[test]
    fn help_and_label_escaping_round_trip() {
        assert_eq!(escape_help("plain"), "plain");
        assert_eq!(escape_help("a\\b\nc"), "a\\\\b\\nc");
        assert_eq!(escape_label_value("say \"hi\"\n"), "say \\\"hi\\\"\\n");
        // describe is first-writer-wins.
        describe("metrics_test.first_help", "first");
        describe("metrics_test.first_help", "second");
        assert_eq!(
            snapshot()
                .help
                .get("metrics_test.first_help")
                .map(String::as_str),
            Some("first")
        );
    }
}
