//! Grouped evaluation is O(groups) by construction: on a million-flow
//! market with a few dozen duplicate groups, `CoalescedMarket::profit`
//! and `bundle_prices` allocate a few kilobytes — nothing proportional to
//! the raw flow count, so nothing is expanded back to raw flows — and
//! still equal the raw market on the expanded bundling bit for bit.
//!
//! A counting global allocator measures the bytes each evaluation
//! requests on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, PoisonError};

use tiered_transit::core::bundling::Bundling;
use tiered_transit::core::coalesce::CoalescedMarket;
use tiered_transit::core::cost::LinearCost;
use tiered_transit::core::demand::ced::CedAlpha;
use tiered_transit::core::demand::logit::LogitAlpha;
use tiered_transit::core::fitting::{fit_ced, fit_logit};
use tiered_transit::core::flow::TrafficFlow;
use tiered_transit::core::market::{CedMarket, LogitMarket, TransitMarket};

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

/// Counts the bytes requested by each thread, then defers to `System`.
struct Counting;

fn count(bytes: usize) {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes));
}

// SAFETY: every call forwards unchanged to the system allocator; the
// counter is a const-initialized thread local, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its output with the bytes it allocated.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

const RAW_FLOWS: usize = 1_000_000;
const DISTINCT: usize = 40;

/// `RAW_FLOWS` flows cycling through `DISTINCT` (demand, distance) pairs.
fn replicated_flows() -> Vec<TrafficFlow> {
    (0..RAW_FLOWS)
        .map(|i| {
            let j = (i % DISTINCT) as f64;
            TrafficFlow::new(i as u32, 1.0 + 7.0 * j, 10.0 + 97.0 * j)
        })
        .collect()
}

/// Group-level bundlings: one tier, round-robin tiers, and tiers with an
/// empty bundle.
fn group_bundlings(groups: usize) -> Vec<Bundling> {
    vec![
        Bundling::single(groups).unwrap(),
        Bundling::new((0..groups).map(|g| g % 3).collect(), 3).unwrap(),
        Bundling::new((0..groups).map(|g| 2 * (g % 4)).collect(), 8).unwrap(),
    ]
}

fn same_prices(a: &[Option<f64>], b: &[Option<f64>]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.map(f64::to_bits) == y.map(f64::to_bits))
}

/// The two million-flow tests run one at a time to bound peak memory.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Evaluates every bundling through the coalesced view under the
/// allocation budget and against the raw market on the expansion.
fn check_o_groups<M: TransitMarket>(market: M) {
    let cm = CoalescedMarket::new(market).unwrap();
    assert_eq!(cm.n_raw_flows(), RAW_FLOWS);
    assert_eq!(cm.n_groups(), DISTINCT);
    for b in group_bundlings(cm.n_groups()) {
        let budget = 64 * cm.n_groups() + 4096 * b.n_bundles() + 4096;
        let (profit, bytes) = allocated_by(|| cm.profit(&b).unwrap());
        assert!(
            bytes <= budget,
            "profit at {} bundles allocated {bytes} B (budget {budget} B)",
            b.n_bundles()
        );
        let (prices, bytes) = allocated_by(|| cm.bundle_prices(&b).unwrap());
        assert!(
            bytes <= budget,
            "bundle_prices at {} bundles allocated {bytes} B (budget {budget} B)",
            b.n_bundles()
        );

        let expanded = cm.expand(&b).unwrap();
        let raw_profit = cm.inner().profit(&expanded).unwrap();
        assert_eq!(
            profit.to_bits(),
            raw_profit.to_bits(),
            "{profit} vs {raw_profit}"
        );
        let raw_prices = cm.inner().bundle_prices(&expanded).unwrap();
        assert!(
            same_prices(&prices, &raw_prices),
            "{prices:?} vs {raw_prices:?}"
        );
    }
}

#[test]
fn coalesced_ced_evaluation_is_o_groups_and_bitwise_raw() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let fit = fit_ced(
        &replicated_flows(),
        &LinearCost::new(0.2).unwrap(),
        CedAlpha::new(1.1).unwrap(),
        20.0,
    )
    .unwrap();
    check_o_groups(CedMarket::new(fit).unwrap());
}

#[test]
fn coalesced_logit_evaluation_is_o_groups_and_bitwise_raw() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let fit = fit_logit(
        &replicated_flows(),
        &LinearCost::new(0.2).unwrap(),
        LogitAlpha::new(1.1).unwrap(),
        20.0,
        0.2,
    )
    .unwrap();
    check_o_groups(LogitMarket::new(fit).unwrap());
}
