//! Canonical JSON: one deterministic, exact-f64-roundtrip rendering of
//! the [`serde::Content`] data model.
//!
//! Two consumers share this form and must agree byte-for-byte:
//!
//! - **Store fingerprinting** — a stage's parameters are canonicalized
//!   and hashed; any byte of drift silently invalidates (or worse,
//!   aliases) cache entries.
//! - **Corpus serialization** (`transit-testkit`) — committed regression
//!   cases are pinned to the canonical emitter's bytes so hand edits
//!   can't diverge from what the shrinker writes.
//!
//! The canonical form is defined as:
//!
//! 1. map keys sorted lexicographically by UTF-8 bytes, recursively
//!    (insertion order of the builder is *not* part of the format);
//! 2. floats rendered by the vendored `serde_json` writer: integers up
//!    to 2^53 as `x.0`, everything else shortest-roundtrip via Rust's
//!    `{}` formatting — so `f64` values survive encode→parse exactly;
//! 3. no trailing whitespace; the compact form has no spaces at all,
//!    the pretty form uses two-space indentation (the vendored
//!    `serde_json` layouts).
//!
//! Non-finite floats render as `null` (JSON has no NaN). Stage params
//! must not contain them — [`to_canonical_json`] debug-asserts this so
//! a NaN parameter can't alias a `null` one in release fingerprints
//! without first failing loudly in tests.

use serde::Content;

/// Builds an ordered [`Content::Map`] from `(key, value)` fields.
///
/// Order does not matter for canonical output (keys are sorted during
/// rendering); the helper exists so params/corpus code reads as a flat
/// field list.
pub fn map(fields: Vec<(&str, Content)>) -> Content {
    Content::Map(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Returns `content` with every map's keys sorted recursively — the
/// normal form both canonical renderings share.
pub fn canonicalize(content: &Content) -> Content {
    match content {
        Content::Seq(items) => Content::Seq(items.iter().map(canonicalize).collect()),
        Content::Map(entries) => {
            let mut sorted: Vec<(String, Content)> = entries
                .iter()
                .map(|(k, v)| (k.clone(), canonicalize(v)))
                .collect();
            // Stable sort: duplicate keys (which the builders never
            // produce) keep their relative order, and JSON parsers'
            // last-wins semantics stay unchanged.
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            Content::Map(sorted)
        }
        other => other.clone(),
    }
}

fn assert_finite(content: &Content) -> bool {
    match content {
        Content::F64(v) => v.is_finite(),
        Content::Seq(items) => items.iter().all(assert_finite),
        Content::Map(entries) => entries.iter().all(|(_, v)| assert_finite(v)),
        _ => true,
    }
}

/// Renders the canonical **compact** form (fingerprint input).
pub fn to_canonical_json(content: &Content) -> String {
    debug_assert!(
        assert_finite(content),
        "canonical JSON input contains a non-finite float: {content:?}"
    );
    serde_json::to_string(&canonicalize(content)).expect("Content serialization is infallible")
}

/// Renders the canonical **pretty** form (committed corpus files,
/// human-facing artifacts).
pub fn to_canonical_pretty(content: &Content) -> String {
    serde_json::to_string_pretty(&canonicalize(content))
        .expect("Content serialization is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_sort_recursively() {
        let c = map(vec![
            (
                "zeta",
                map(vec![("b", Content::U64(2)), ("a", Content::U64(1))]),
            ),
            (
                "alpha",
                Content::Seq(vec![map(vec![
                    ("y", Content::Null),
                    ("x", Content::Bool(true)),
                ])]),
            ),
        ]);
        assert_eq!(
            to_canonical_json(&c),
            r#"{"alpha":[{"x":true,"y":null}],"zeta":{"a":1,"b":2}}"#
        );
    }

    #[test]
    fn field_order_never_changes_output() {
        let a = map(vec![
            ("p", Content::F64(1.5)),
            ("q", Content::Str("s".into())),
        ]);
        let b = map(vec![
            ("q", Content::Str("s".into())),
            ("p", Content::F64(1.5)),
        ]);
        assert_eq!(to_canonical_json(&a), to_canonical_json(&b));
        assert_eq!(to_canonical_pretty(&a), to_canonical_pretty(&b));
    }

    #[test]
    fn floats_roundtrip_exactly_through_canonical_json() {
        for &v in &[
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1e300,
            -2.2250738585072014e-308,
            123_456_789.123_456_79,
            4.0,
        ] {
            let rendered = to_canonical_json(&Content::F64(v));
            let parsed: serde_json::Value = serde_json::from_str(&rendered).unwrap();
            assert_eq!(parsed.as_f64().map(f64::to_bits), Some(v.to_bits()), "{v}");
        }
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    #[cfg(debug_assertions)]
    fn nan_params_fail_loudly_in_debug() {
        let _ = to_canonical_json(&map(vec![("x", Content::F64(f64::NAN))]));
    }
}
