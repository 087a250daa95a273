//! Structured spans: RAII guards aggregating nested wall-clock timings.
//!
//! ## Hot-path design
//!
//! A live span is a frame on a **thread-local** stack — entering and
//! closing one touches no locks. Closing a nested span folds its timing
//! into the parent frame; only when a *root* span (no parent on this
//! thread) closes does the aggregate subtree merge into the global
//! registry, taking the registry mutex once per root. Pool workers
//! therefore pay one lock per task, not per span.
//!
//! ## Aggregation model
//!
//! Spans with the same key (`name` or `name(label=value, ...)`) under
//! the same parent aggregate into one [`SpanNode`] carrying a call count
//! and summed nanoseconds, so a sweep of 500 items produces one
//! `stage.run` node with `count == 500`, not 500 tree entries. Keys are
//! data, not identity: keep label cardinality low.
//!
//! ## Cross-thread nesting
//!
//! Worker threads have their own (empty) stacks, so their roots would
//! surface at the top level of the tree. `transit_pool` captures
//! [`current_path`] on the submitting thread and pins it on each worker
//! with [`inherit_path`] for the task's duration; worker roots then
//! merge under the span that submitted them.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::level::{level_enabled, Level};

/// Aggregated timings for one span key at one position in the tree.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanNode {
    /// How many spans merged into this node.
    pub count: u64,
    /// Total wall-clock nanoseconds across those spans.
    pub nanos: u128,
    /// Child spans, keyed by their rendered key, in sorted order.
    pub children: BTreeMap<String, SpanNode>,
}

impl SpanNode {
    /// Total wall-clock seconds.
    pub fn seconds(&self) -> f64 {
        self.nanos as f64 / 1e9
    }

    /// Folds `other` into `self` (summing counts/times, recursing into
    /// children).
    pub fn merge(&mut self, other: SpanNode) {
        self.count += other.count;
        self.nanos += other.nanos;
        for (key, child) in other.children {
            self.children.entry(key).or_default().merge(child);
        }
    }

    /// Sum of `count` over this node and every descendant.
    pub fn total_count(&self) -> u64 {
        self.count
            + self
                .children
                .values()
                .map(SpanNode::total_count)
                .sum::<u64>()
    }

    /// Looks up a descendant by path segments.
    pub fn descendant(&self, path: &[&str]) -> Option<&SpanNode> {
        match path.split_first() {
            None => Some(self),
            Some((head, rest)) => self.children.get(*head)?.descendant(rest),
        }
    }
}

impl serde::Serialize for SpanNode {
    fn to_content(&self) -> serde::Content {
        serde::Content::Map(vec![
            ("count".into(), serde::Content::U64(self.count)),
            ("seconds".into(), serde::Content::F64(self.seconds())),
            ("children".into(), tree_to_content(&self.children)),
        ])
    }
}

/// Renders a span tree as a JSON object keyed by span key (children in
/// `BTreeMap` order, so output is deterministic).
pub fn tree_to_content(tree: &BTreeMap<String, SpanNode>) -> serde::Content {
    serde::Content::Map(
        tree.iter()
            .map(|(key, node)| (key.clone(), serde::Serialize::to_content(node)))
            .collect(),
    )
}

/// A live span on this thread's stack.
struct Frame {
    key: String,
    start: Instant,
    children: BTreeMap<String, SpanNode>,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    /// Path prefix under which this thread's root spans merge (empty on
    /// threads that never called [`inherit_path`]).
    static BASE: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

fn registry() -> &'static Mutex<BTreeMap<String, SpanNode>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, SpanNode>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// RAII span guard; see the `span!`/`debug_span!` macros for the normal
/// entry points. Records its timing into the registry when dropped.
#[must_use = "a span records its timing when dropped; bind it to a variable"]
pub struct Span {
    active: bool,
}

impl Span {
    /// Enters a span at `level`. `labels` is only invoked (and only
    /// allocates) when the level is enabled; it renders to
    /// `"k=v, k2=v2"` and becomes part of the span key.
    pub fn enter(level: Level, name: &str, labels: impl FnOnce() -> String) -> Span {
        if !level_enabled(level) {
            return Span { active: false };
        }
        let labels = labels();
        let key = if labels.is_empty() {
            name.to_string()
        } else {
            format!("{name}({labels})")
        };
        crate::journal::span_begin(&key);
        STACK.with(|stack| {
            stack.borrow_mut().push(Frame {
                key,
                start: Instant::now(),
                children: BTreeMap::new(),
            });
        });
        Span { active: true }
    }

    /// Whether this guard is recording (false under `quiet`).
    pub fn is_recording(&self) -> bool {
        self.active
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let root = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let frame = stack.pop().expect("span stack underflow");
            crate::journal::span_end(&frame.key);
            let node = SpanNode {
                count: 1,
                nanos: frame.start.elapsed().as_nanos(),
                children: frame.children,
            };
            match stack.last_mut() {
                Some(parent) => {
                    parent.children.entry(frame.key).or_default().merge(node);
                    None
                }
                None => Some((frame.key, node)),
            }
        });
        if let Some((key, node)) = root {
            flush_root(key, node);
        }
    }
}

/// Merges a completed root span into the global registry under this
/// thread's base path (one mutex acquisition).
fn flush_root(key: String, node: SpanNode) {
    let base = BASE.with(|base| base.borrow().clone());
    let mut tree = registry().lock().expect("span registry poisoned");
    let mut children = &mut *tree;
    for segment in base {
        children = &mut children.entry(segment).or_default().children;
    }
    children.entry(key).or_default().merge(node);
}

/// The active span path on this thread (base path plus open frames,
/// outermost first). Capture this before handing work to other threads.
pub fn current_path() -> Vec<String> {
    let mut path = BASE.with(|base| base.borrow().clone());
    STACK.with(|stack| {
        for frame in stack.borrow().iter() {
            path.push(frame.key.clone());
        }
    });
    path
}

/// Restores the previous base path when dropped.
#[must_use = "dropping the guard immediately undoes inherit_path"]
pub struct PathGuard {
    previous: Vec<String>,
}

/// Pins this thread's root spans under `path` (typically a
/// [`current_path`] captured on the spawning thread) until the returned
/// guard drops.
pub fn inherit_path(path: Vec<String>) -> PathGuard {
    let previous = BASE.with(|base| std::mem::replace(&mut *base.borrow_mut(), path));
    PathGuard { previous }
}

impl Drop for PathGuard {
    fn drop(&mut self) {
        let previous = std::mem::take(&mut self.previous);
        BASE.with(|base| *base.borrow_mut() = previous);
    }
}

/// A copy of the global span tree.
pub fn snapshot_spans() -> BTreeMap<String, SpanNode> {
    registry().lock().expect("span registry poisoned").clone()
}

/// Clears the global span tree. Spans still open on any thread flush
/// their (complete) subtrees after the reset; scope resets around
/// quiescent points.
pub fn reset_spans() {
    registry().lock().expect("span registry poisoned").clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    // Span tests mutate shared thread-local/global state keyed by span
    // names; unique names per test keep them independent under the
    // parallel test runner.

    #[test]
    fn nested_spans_aggregate_under_parent() {
        {
            let _outer = Span::enter(Level::Info, "span_test.outer", String::new);
            for _ in 0..3 {
                let _inner = Span::enter(Level::Info, "span_test.inner", String::new);
            }
        }
        let tree = snapshot_spans();
        let outer = tree.get("span_test.outer").expect("outer recorded");
        assert_eq!(outer.count, 1);
        let inner = outer.children.get("span_test.inner").expect("inner nested");
        assert_eq!(inner.count, 3);
        assert!(outer.nanos >= inner.nanos, "parent time covers children");
    }

    #[test]
    fn labels_become_part_of_the_key() {
        {
            let _s = Span::enter(Level::Info, "span_test.labeled", || "id=fig8".to_string());
        }
        assert!(snapshot_spans().contains_key("span_test.labeled(id=fig8)"));
    }

    #[test]
    fn inherited_path_nests_worker_roots() {
        let path = vec!["span_test.phase".to_string()];
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _guard = inherit_path(path.clone());
                let _s = Span::enter(Level::Info, "span_test.worker_item", String::new);
            });
        });
        let tree = snapshot_spans();
        let phase = tree.get("span_test.phase").expect("base path materialized");
        assert!(phase.children.contains_key("span_test.worker_item"));
    }

    #[test]
    fn current_path_tracks_open_frames() {
        let _outer = Span::enter(Level::Info, "span_test.path_outer", String::new);
        let _inner = Span::enter(Level::Info, "span_test.path_inner", String::new);
        let path = current_path();
        let tail: Vec<&str> = path.iter().map(String::as_str).collect();
        assert!(tail.ends_with(&["span_test.path_outer", "span_test.path_inner"]));
    }

    #[test]
    fn descendant_lookup_walks_the_tree() {
        {
            let _a = Span::enter(Level::Info, "span_test.walk_a", String::new);
            let _b = Span::enter(Level::Info, "span_test.walk_b", String::new);
        }
        let tree = snapshot_spans();
        let a = tree.get("span_test.walk_a").unwrap();
        assert!(a.descendant(&["span_test.walk_b"]).is_some());
        assert!(a.descendant(&["nope"]).is_none());
        assert_eq!(a.total_count(), 2);
    }
}
