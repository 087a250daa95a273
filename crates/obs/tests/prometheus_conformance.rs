//! Prometheus text-format conformance over the **full registry dump**:
//! registers metrics with hostile help strings (backslashes, newlines,
//! quotes) and histograms with boundary-straddling samples, then runs
//! the whole exposition through the format validator line by line.
//!
//! The satellite bug this pins down: `# HELP` payloads used to be
//! emitted verbatim, so a help string containing a newline split the
//! exposition mid-comment and broke every scraper downstream.

use transit_obs::metrics::{counter, describe, histogram, snapshot, validate_prometheus_text};

#[test]
fn full_registry_dump_conforms_with_hostile_help_strings() {
    describe(
        "conformance.backslash",
        "windows path C:\\temp\\x and a trailing backslash \\",
    );
    describe("conformance.newline", "first line\nsecond line\nthird");
    describe("conformance.quotes", "says \"hello\" twice \"\"");
    describe("conformance.all_three", "mix: \\ then\na \"quoted\" end\\");
    counter("conformance.backslash").add(1);
    counter("conformance.newline").add(2);
    counter("conformance.quotes").add(3);
    counter("conformance.all_three").add(4);

    describe("conformance.hist", "samples with\nnasty \\ help");
    let h = histogram("conformance.hist");
    for v in [0u64, 7, 8, 15, 16, 17, 1_000_000, u64::MAX] {
        h.record(v);
    }

    let text = snapshot().to_prometheus();
    validate_prometheus_text(&text).unwrap_or_else(|e| panic!("{e}\n--- dump ---\n{text}"));

    // Every HELP line is exactly one physical line.
    let newline_help: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("# HELP conformance_newline"))
        .collect();
    assert_eq!(newline_help.len(), 1, "help must stay on one line");
    assert!(
        newline_help[0].contains("first line\\nsecond line\\nthird"),
        "newlines must be escaped: {newline_help:?}"
    );
    let backslash_help: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("# HELP conformance_backslash"))
        .collect();
    assert!(
        backslash_help[0].contains("C:\\\\temp\\\\x"),
        "backslashes must double: {backslash_help:?}"
    );
}

#[test]
fn validator_rejects_malformed_expositions() {
    // Raw newline smuggled into a HELP payload (the pre-fix bug shape):
    // the orphaned second line is not a valid sample.
    let split_help = "# HELP m first\nsecond line\n# TYPE m counter\nm 1\n";
    assert!(validate_prometheus_text(split_help).is_err());

    // Unescaped quote inside a label value terminates the string early.
    let bad_label = "# TYPE m counter\nm{l=\"a\"b\"} 1\n";
    assert!(validate_prometheus_text(bad_label).is_err());

    // Stray escape sequence.
    let bad_escape = "# HELP m bad \\q escape\n# TYPE m counter\nm 1\n";
    assert!(validate_prometheus_text(bad_escape).is_err());

    // Sample without a value.
    assert!(validate_prometheus_text("m\n").is_err());

    // Metric name starting with a digit.
    assert!(validate_prometheus_text("9m 1\n").is_err());

    // A well-formed document passes. Note the asymmetry the spec
    // defines: quotes are escaped in label values but written raw in
    // HELP text.
    let ok = "# HELP m says \"hi\" on\\none line\n# TYPE m counter\nm{l=\"x\\\"y\"} 1\n";
    validate_prometheus_text(ok).expect("escaped document conforms");
}

#[test]
fn histogram_families_expose_buckets_sum_count_and_quantiles() {
    let h = histogram("conformance.family");
    for v in 1..=100u64 {
        h.record(v);
    }
    let text = snapshot().to_prometheus();
    validate_prometheus_text(&text).expect("conforms");
    for suffix in ["_bucket{le=\"+Inf\"}", "_sum", "_count"] {
        assert!(
            text.contains(&format!("conformance_family{suffix}")),
            "missing {suffix}:\n{text}"
        );
    }
    assert!(text.contains("conformance_family_quantile{quantile=\"0.95\"}"));
}
