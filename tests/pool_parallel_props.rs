//! Property tests pinning every pooled fast path **bitwise-equal** to
//! its serial execution, plus stress tests for the pool itself.
//!
//! The work-stealing pool (`transit_pool`) executes the tiled DP rows,
//! the stage executor's waves, the NetFlow decode workers, and the
//! capture-curves strategy fan-out. All of them are pure optimizations:
//! tasks share no mutable state and results merge by submission index,
//! so for any pool budget the output must be byte-identical to running
//! the same work inline. These properties pin that contract at budgets
//! {1, 2, 8} — budget 1 is the inline serial fallback, budget 8 forces
//! real cross-thread scheduling even on a single-core CI box.
//!
//! Budgets are installed with `scoped_budget`, which is thread-local:
//! concurrently running tests cannot observe each other's budgets.

use proptest::prelude::*;

use tiered_transit::core::bundling::{BundlingStrategy, OptimalDp, StrategyKind};
use tiered_transit::core::capture::{capture_curve, capture_curves};
use tiered_transit::core::cost::LinearCost;
use tiered_transit::core::demand::ced::CedAlpha;
use tiered_transit::core::fitting::fit_ced;
use tiered_transit::core::flow::TrafficFlow;
use tiered_transit::core::market::CedMarket;
use tiered_transit::netflow::{Collector, Exporter, FlowKey, SystematicSampler};
use tiered_transit::pool;

/// Strategy for a valid flow set with `range` flows.
fn arb_flows(range: std::ops::Range<usize>) -> impl Strategy<Value = Vec<TrafficFlow>> {
    prop::collection::vec((0.1f64..500.0, 0.5f64..4000.0), range).prop_map(|pairs| {
        pairs
            .into_iter()
            .enumerate()
            .map(|(i, (q, d))| TrafficFlow::new(i as u32, q, d))
            .collect()
    })
}

fn ced_market(flows: &[TrafficFlow]) -> CedMarket {
    let cost = LinearCost::new(0.2).unwrap();
    CedMarket::new(fit_ced(flows, &cost, CedAlpha::new(1.2).unwrap(), 20.0).unwrap()).unwrap()
}

/// Deterministic export stream: `n_routers` routers each export
/// `n_flows` unsampled flows, so the same inputs always produce the
/// same wire bytes.
fn wire_stream(n_flows: usize, n_routers: usize) -> Vec<bytes::Bytes> {
    let mut wire = Vec::new();
    for router in 0..n_routers {
        let mut exporter = Exporter::new(router as u8, SystematicSampler::new(1));
        for f in 0..n_flows as u32 {
            let key = FlowKey {
                src_addr: std::net::Ipv4Addr::from(0x0A00_0000 | f),
                dst_addr: std::net::Ipv4Addr::from(0xC0A8_0000 | f.wrapping_mul(2654435761)),
                src_port: 1024 + (f % 40_000) as u16,
                dst_port: 443,
                protocol: 6,
            };
            exporter.observe_packets(key, 2 + (f % 3) as u64, 1_500);
        }
        for pkt in exporter.flush(1_300_000_000) {
            wire.push(pkt.encode());
        }
    }
    wire
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tiled DP rows through the pool are bitwise the serial build at
    /// every budget (`dp_threads = 8` is a cap; budget 1 clamps it to
    /// the inline loop).
    #[test]
    fn pooled_dp_tiles_are_bitwise_equal_to_serial(
        flows in arb_flows(8..40),
        max_bundles in 1usize..8,
    ) {
        let market = ced_market(&flows);
        let serial = OptimalDp::with_threads(1)
            .bundle_series(&market, max_bundles)
            .unwrap();
        for budget in [1usize, 2, 8] {
            let _budget = pool::scoped_budget(budget);
            let tiled = OptimalDp::with_threads(8)
                .bundle_series(&market, max_bundles)
                .unwrap();
            prop_assert_eq!(serial.len(), tiled.len());
            for (s, t) in serial.iter().zip(&tiled) {
                prop_assert_eq!(s.assignment(), t.assignment(), "budget={}", budget);
                prop_assert_eq!(s.n_bundles(), t.n_bundles(), "budget={}", budget);
            }
        }
    }

    /// The pooled indexed map returns `f(i, &items[i])` in item order
    /// for any budget and width cap — worker scheduling can neither
    /// reorder nor perturb.
    #[test]
    fn pooled_sweep_is_equal_to_serial(
        items in prop::collection::vec(0u64..1_000_000, 1..80),
        jobs in 1usize..12,
    ) {
        let f = |_: usize, &x: &u64| x.wrapping_mul(0x9E37_79B9).rotate_left(7);
        let expected: Vec<u64> = items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        for budget in [1usize, 2, 8] {
            let _budget = pool::scoped_budget(budget);
            let got = pool::run_indexed(jobs, &items, f);
            prop_assert_eq!(&got, &expected, "budget={} jobs={}", budget, jobs);
        }
    }

    /// The pooled curves phase (`capture_curves`) is bitwise the
    /// per-strategy serial loop at every budget.
    #[test]
    fn pooled_curves_are_bitwise_equal_to_serial(
        flows in arb_flows(4..24),
        max_bundles in 1usize..8,
    ) {
        let market = ced_market(&flows);
        let strategies: Vec<_> = StrategyKind::ALL.iter().map(|&k| k.build()).collect();
        let refs: Vec<&(dyn BundlingStrategy + Sync)> =
            strategies.iter().map(|s| s.as_ref() as _).collect();
        let serial: Vec<_> = refs
            .iter()
            .map(|s| capture_curve(&market, *s, max_bundles).unwrap())
            .collect();
        for budget in [1usize, 2, 8] {
            let _budget = pool::scoped_budget(budget);
            let pooled = capture_curves(&market, &refs, max_bundles).unwrap();
            prop_assert_eq!(serial.len(), pooled.len());
            for (s, p) in serial.iter().zip(&pooled) {
                prop_assert_eq!(&s.strategy, &p.strategy, "budget={}", budget);
                prop_assert_eq!(&s.n_bundles, &p.n_bundles, "budget={}", budget);
                let capture_bits = |c: &[f64]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(
                    capture_bits(&s.capture), capture_bits(&p.capture), "budget={}", budget
                );
                prop_assert_eq!(
                    capture_bits(&s.profit), capture_bits(&p.profit), "budget={}", budget
                );
            }
        }
    }

    /// Pooled batch ingest reaches exactly the serial collector state at
    /// every budget (shard routing and fold order are deterministic; the
    /// pool only parallelizes decode).
    #[test]
    fn pooled_ingest_is_equal_to_serial(
        n_flows in 1usize..300,
        n_routers in 1usize..4,
    ) {
        let wire = wire_stream(n_flows, n_routers);
        prop_assert!(!wire.is_empty());
        let mut serial = Collector::new();
        for dgram in &wire {
            let _ = serial.ingest(dgram);
        }
        for budget in [1usize, 2, 8] {
            let _budget = pool::scoped_budget(budget);
            let mut pooled = Collector::with_shards_and_workers(4, 8);
            pooled.ingest_batch(&wire);
            prop_assert_eq!(serial.stats(), pooled.stats(), "budget={}", budget);
            prop_assert_eq!(serial.flow_count(), pooled.flow_count(), "budget={}", budget);
            prop_assert_eq!(
                serial.measured_flows(), pooled.measured_flows(), "budget={}", budget
            );
        }
    }
}

/// Nested parallel regions split the budget instead of multiplying
/// threads, and remain exact: an 8-budget outer fan-out running inner
/// fan-outs (each seeing `budget / width`) returns the serial answer.
#[test]
fn stress_nested_scopes_split_budget_and_stay_exact() {
    let _budget = pool::scoped_budget(8);
    let outer: Vec<u64> = (0..16).collect();
    let inner: Vec<u64> = (0..200).collect();
    let expected: Vec<u64> = outer
        .iter()
        .map(|&seed| {
            inner
                .iter()
                .map(|&x| x.wrapping_mul(31).wrapping_add(seed))
                .fold(0u64, u64::wrapping_add)
        })
        .collect();
    let got: Vec<u64> = pool::run_indexed(0, &outer, |_, &seed| {
        // Inner region: budget is split, never oversubscribed.
        assert!(pool::thread_budget() >= 1);
        pool::run_indexed(0, &inner, move |_, &x| {
            x.wrapping_mul(31).wrapping_add(seed)
        })
        .into_iter()
        .fold(0u64, u64::wrapping_add)
    });
    assert_eq!(got, expected);
}

/// A panic inside one task propagates to the submitting caller after
/// the fan-out drains — and the pool survives to run later work.
#[test]
fn stress_panic_in_task_propagates_and_pool_survives() {
    let _budget = pool::scoped_budget(8);
    let items: Vec<u64> = (0..64).collect();
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool::run_indexed(0, &items, |i, &x| {
            if i == 41 {
                panic!("task 41 exploded");
            }
            x
        })
    }));
    let err = caught.expect_err("panic must propagate");
    let msg = err
        .downcast_ref::<&str>()
        .copied()
        .map(String::from)
        .or_else(|| err.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(
        msg.contains("task 41 exploded"),
        "unexpected payload: {msg}"
    );
    // The pool is still fully functional afterwards.
    let got = pool::run_indexed(0, &items, |_, &x| x * 2);
    let expected: Vec<u64> = items.iter().map(|&x| x * 2).collect();
    assert_eq!(got, expected);
}

/// When the budget is exhausted (1), every task runs inline on the
/// calling thread — no pool workers are involved at all.
#[test]
fn stress_budget_exhaustion_falls_back_to_inline_execution() {
    let _budget = pool::scoped_budget(1);
    let caller = std::thread::current().id();
    let items: Vec<u64> = (0..128).collect();
    let threads: Vec<std::thread::ThreadId> =
        pool::run_indexed(0, &items, |_, _| std::thread::current().id());
    assert!(
        threads.iter().all(|&t| t == caller),
        "budget 1 must execute every task inline on the caller"
    );
    // Nested regions under an exhausted budget also stay inline.
    let nested: Vec<std::thread::ThreadId> = pool::run_indexed(0, &items[..4], |_, _| {
        pool::run_indexed(0, &items[..4], |_, _| std::thread::current().id())[0]
    });
    assert!(nested.iter().all(|&t| t == caller));
}
