//! Optimal bundling (§4.2.1, "Optimal").
//!
//! The paper exhaustively searches bundle combinations and notes the blowup
//! ("more than a billion ways to divide one hundred traffic flows into six
//! pricing bundles"). Both demand models admit an additive bundle score
//! (see [`crate::market`]) which we exploit twice:
//!
//! * [`OptimalExhaustive`] enumerates set partitions with at most `B`
//!   blocks via restricted-growth strings, scoring each partition
//!   incrementally. Exact, but limited to small instances
//!   ([`OptimalExhaustive::MAX_FLOWS`]).
//! * [`OptimalDp`] sorts flows along an ordering and finds the best
//!   partition into `B` *contiguous* runs by dynamic programming in
//!   O(B·n²) using prefix sums of the score terms. For each of several
//!   orderings (cost, demand, potential profit, net value `v − c`) the DP
//!   is exact among contiguous partitions of that ordering; the best
//!   result across orderings is returned. Cross-validated against the
//!   exhaustive search in tests (they agree on every small instance we
//!   generate, supporting the standard interval-bundling intuition for
//!   these score functions).

use super::{Bundling, BundlingStrategy};
use crate::error::{Result, TransitError};
use crate::market::TransitMarket;

/// Exact optimal bundling by set-partition enumeration.
#[derive(Debug, Clone, Copy, Default)]
pub struct OptimalExhaustive;

impl OptimalExhaustive {
    /// Largest instance the enumeration accepts. Bell(14) ≈ 1.9×10⁸ is the
    /// practical ceiling for a test-time search.
    pub const MAX_FLOWS: usize = 14;
}

impl OptimalExhaustive {
    fn validate(market: &dyn TransitMarket) -> Result<usize> {
        let n = market.n_flows();
        if n == 0 {
            return Err(TransitError::EmptyFlowSet);
        }
        if n > Self::MAX_FLOWS {
            return Err(TransitError::InstanceTooLarge {
                n_flows: n,
                max_flows: Self::MAX_FLOWS,
            });
        }
        Ok(n)
    }

    /// One sweep over the RGS space capped at `b_cap` blocks, tracking the
    /// best partition for *every* block budget `1..=b_cap` at once.
    ///
    /// The odometer emits restricted-growth strings in lexicographic
    /// order, and the strings with at most `k` blocks form a subsequence
    /// that is exactly the cap-`k` enumeration in the same order — so the
    /// first-strict-maximum winner per budget matches a direct per-budget
    /// run bit for bit.
    fn sweep(market: &dyn TransitMarket, b_cap: usize) -> Result<Vec<Vec<usize>>> {
        let n = Self::validate(market)?;
        let terms = market.score_terms();
        let b_cap = b_cap.min(n);

        let mut rgs = vec![0usize; n];
        // best_score[k] / best[k]: best seen so far among partitions with
        // at most k blocks (index 0 unused).
        let mut best_score = vec![f64::NEG_INFINITY; b_cap + 1];
        let mut best = vec![rgs.clone(); b_cap + 1];
        let mut sum_a = vec![0.0; b_cap];
        let mut sum_b = vec![0.0; b_cap];

        loop {
            // Score this partition.
            sum_a.fill(0.0);
            sum_b.fill(0.0);
            let mut blocks = 0usize;
            for (i, &g) in rgs.iter().enumerate() {
                sum_a[g] += terms.a[i];
                sum_b[g] += terms.b[i];
                blocks = blocks.max(g + 1);
            }
            let score: f64 = (0..blocks).map(|g| terms.score(sum_a[g], sum_b[g])).sum();
            // A partition with `blocks` blocks is a candidate for every
            // budget k >= blocks. best_score is non-decreasing in k (the
            // candidate sets nest), so the first non-improving budget ends
            // the update walk.
            for k in blocks..=b_cap {
                if score > best_score[k] {
                    best_score[k] = score;
                    best[k].clone_from(&rgs);
                } else {
                    break;
                }
            }

            // Advance to the next RGS: rgs[0] = 0 and
            // rgs[i] <= max(rgs[..i]) + 1, capped at b_cap - 1.
            let mut i = n - 1;
            loop {
                if i == 0 {
                    // rgs[0] must stay 0: enumeration complete.
                    return Ok(best);
                }
                let max_prefix = rgs[..i].iter().copied().max().unwrap_or(0);
                let cap = (max_prefix + 1).min(b_cap - 1);
                if rgs[i] < cap {
                    rgs[i] += 1;
                    for r in rgs[i + 1..].iter_mut() {
                        *r = 0;
                    }
                    break;
                }
                i -= 1;
            }
        }
    }
}

impl BundlingStrategy for OptimalExhaustive {
    fn name(&self) -> &'static str {
        "optimal-exhaustive"
    }

    fn bundle(&self, market: &dyn TransitMarket, n_bundles: usize) -> Result<Bundling> {
        if n_bundles == 0 {
            return Err(TransitError::ZeroBundles);
        }
        let n = Self::validate(market)?;
        let mut best = Self::sweep(market, n_bundles)?;
        Bundling::new(best.swap_remove(n_bundles.min(n)), n_bundles)
    }

    fn bundle_series(
        &self,
        market: &dyn TransitMarket,
        max_bundles: usize,
    ) -> Result<Vec<Bundling>> {
        if max_bundles == 0 {
            return Ok(Vec::new());
        }
        let n = Self::validate(market)?;
        let best = Self::sweep(market, max_bundles)?;
        (1..=max_bundles)
            .map(|b| Bundling::new(best[b.min(n)].clone(), b))
            .collect()
    }
}

/// Flow orderings the DP searches along.
const ORDERINGS: [OrderingKey; 4] = [
    OrderingKey::Cost,
    OrderingKey::Demand,
    OrderingKey::PotentialProfit,
    OrderingKey::NetValue,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OrderingKey {
    Cost,
    Demand,
    PotentialProfit,
    NetValue,
}

/// Optimal-among-contiguous bundling via dynamic programming over several
/// flow orderings.
///
/// The table build can spread each DP row across the shared
/// [`transit_pool`] workers (row `b` reads only row `b − 1`, so cells
/// within a row are independent); the row is cut into fixed-width column
/// tiles and every cell is computed by exactly one worker with the same
/// arithmetic and tie-breaks as the serial loop, so the tables are
/// **byte-identical for any thread count or pool budget**. The
/// per-instance count is a cap within the pool's thread budget; the
/// default (0 or 1) builds serially.
#[derive(Debug, Clone, Copy, Default)]
pub struct OptimalDp {
    dp_threads: usize,
}

impl OptimalDp {
    /// Creates the strategy with a serial table build.
    pub fn new() -> OptimalDp {
        OptimalDp::default()
    }

    /// Creates the strategy with an explicit DP worker-thread cap
    /// (0 and 1 both build serially).
    pub fn with_threads(dp_threads: usize) -> OptimalDp {
        OptimalDp { dp_threads }
    }

    /// The thread count this instance will build tables with.
    fn effective_threads(&self) -> usize {
        self.dp_threads.max(1)
    }

    fn key_values(key: OrderingKey, market: &dyn TransitMarket) -> Vec<f64> {
        match key {
            OrderingKey::Cost => market.costs().to_vec(),
            OrderingKey::Demand => market.demands().to_vec(),
            OrderingKey::PotentialProfit => market.potential_profits().to_vec(),
            OrderingKey::NetValue => market
                .valuations()
                .iter()
                .zip(market.costs())
                .map(|(&v, &c)| v - c)
                .collect(),
        }
    }
}

/// DP tables over one ordering, built once for every block count up to
/// `b_cap`.
///
/// Row `b` of the table depends only on row `b − 1`, so the values (and
/// parents) computed under a larger cap are bitwise identical to the ones
/// any smaller cap would produce — a single O(b_cap·n²) build serves
/// every point of a capture curve where the per-point path paid
/// O(Σ b·n²) = O(b_cap²·n²) total.
struct DpTables {
    n: usize,
    b_cap: usize,
    /// `dp[b*(n+1) + j]`: best score for the first `j` flows in exactly
    /// `b` runs.
    dp: Vec<f64>,
    /// `parent[b*(n+1) + j]`: split point of the last run in that optimum.
    parent: Vec<usize>,
}

impl DpTables {
    /// Column-tile width for the parallel row build. Fixed (never derived
    /// from the thread count) so the tile grid — and with it the work
    /// each cell does — is identical no matter how many workers run.
    const TILE_COLUMNS: usize = 256;

    /// Rows narrower than this stay serial: a row must span at least two
    /// tiles before a pool fan-out pays for itself.
    const PARALLEL_MIN_COLUMNS: usize = 2 * Self::TILE_COLUMNS;

    /// Builds the tables from the order's score-term prefix sums and the
    /// market's cached segment-score memo (if any), spreading each row
    /// across up to `threads` pool workers.
    ///
    /// `run_score(k, j)` is independent of the row, but the inner loop
    /// visits each (k, j) pair once per row — and the CED score costs a
    /// `powf` per call. `memo` is the lower triangle of those scores
    /// (`memo[j·(j−1)/2 + k]`), built once per market in
    /// [`crate::cache::MarketArtifacts::segment_memo`] and shared
    /// read-only across every strategy and DP build touching the
    /// market. Identical results either way: the memo stores the exact
    /// same f64 the inline call would produce. `None` (market above the
    /// memo size cap) recomputes scores inline.
    fn build(
        terms: &crate::market::ScoreTerms,
        prefix: &crate::cache::PrefixSums,
        memo: Option<&[f64]>,
        b_cap: usize,
        threads: usize,
    ) -> DpTables {
        let pa = &prefix.a;
        let pb = &prefix.b;
        let n = pa.len() - 1;
        let b_cap = b_cap.min(n);
        let w = n + 1;
        let run_score = |from: usize, to: usize| terms.score(pa[to] - pa[from], pb[to] - pb[from]);
        let tri = |from: usize, to: usize| to * (to - 1) / 2 + from;

        // One cell of row `b`: best (value, parent) over split points
        // `k`. Identical arithmetic and first-strict-max tie-break on
        // both the serial and the tiled path — the cell is the unit of
        // work, so tiling cannot perturb it.
        let cell = |b: usize, prev: &[f64], j: usize| -> (f64, usize) {
            let scores = memo.map(|m| &m[tri(0, j)..tri(0, j) + j]);
            let mut best = f64::NEG_INFINITY;
            let mut par = 0usize;
            for k in (b - 1)..j {
                if prev[k] == f64::NEG_INFINITY {
                    continue;
                }
                let s = match scores {
                    Some(row) => row[k],
                    None => run_score(k, j),
                };
                let cand = prev[k] + s;
                if cand > best {
                    best = cand;
                    par = k;
                }
            }
            (best, par)
        };

        let threads = threads.max(1);
        let mut tiles_built = 0u64;
        let mut dp = vec![f64::NEG_INFINITY; (b_cap + 1) * w];
        let mut parent = vec![0usize; (b_cap + 1) * w];
        dp[0] = 0.0;
        for b in 1..=b_cap {
            let (prev_rows, rest) = dp.split_at_mut(b * w);
            let prev = &prev_rows[(b - 1) * w..(b - 1) * w + w];
            let cur = &mut rest[..w];
            let par = &mut parent[b * w..(b + 1) * w];
            let columns = n + 1 - b; // valid cells: j in b..=n
            if threads == 1 || columns < Self::PARALLEL_MIN_COLUMNS {
                tiles_built += 1;
                for j in b..=n {
                    let (v, k) = cell(b, prev, j);
                    cur[j] = v;
                    par[j] = k;
                }
            } else {
                // Cut the row's valid columns into fixed-width tiles;
                // each tile index is claimed by exactly one pool slot
                // (a unique `&mut` into a disjoint `chunks_mut` slice),
                // so the row's contents equal the serial loop's
                // regardless of scheduling or pool budget. `threads`
                // caps the fan-out width within the pool's budget; a
                // width of 1 runs the tiles inline on this thread.
                // A tile: (first column index, value cells, parent cells).
                let cur_tail = &mut cur[b..=n];
                let par_tail = &mut par[b..=n];
                let mut tiles: Vec<(usize, &mut [f64], &mut [usize])> = cur_tail
                    .chunks_mut(Self::TILE_COLUMNS)
                    .zip(par_tail.chunks_mut(Self::TILE_COLUMNS))
                    .enumerate()
                    .map(|(t, (d, p))| (b + t * Self::TILE_COLUMNS, d, p))
                    .collect();
                tiles_built += tiles.len() as u64;
                let cell = &cell;
                transit_pool::for_each_mut(threads, &mut tiles, |_, (j0, d, p)| {
                    for off in 0..d.len() {
                        let (v, k) = cell(b, prev, *j0 + off);
                        d[off] = v;
                        p[off] = k;
                    }
                });
            }
        }
        transit_obs::counter!("bundling.dp.tiles").add(tiles_built);
        DpTables {
            n,
            b_cap,
            dp,
            parent,
        }
    }

    /// Best exact block count for a budget of `n_bundles` bundles: first
    /// strict maximum of the final column over `1..=min(budget, b_cap)`
    /// (using fewer bundles is allowed), replicating the per-point
    /// selection rule.
    fn best_block_count(&self, budget: usize) -> usize {
        let w = self.n + 1;
        let mut best_b = 1;
        for b in 1..=budget.min(self.b_cap) {
            if self.dp[b * w + self.n] > self.dp[best_b * w + self.n] {
                best_b = b;
            }
        }
        best_b
    }

    /// Score of the full flow set partitioned into exactly `blocks` runs.
    fn score_at(&self, blocks: usize) -> f64 {
        self.dp[blocks * (self.n + 1) + self.n]
    }

    /// Reconstructs the assignment for a partition into exactly `blocks`
    /// runs by walking the parent pointers.
    fn reconstruct(&self, order: &[usize], blocks: usize) -> Vec<usize> {
        let w = self.n + 1;
        let mut assignment = vec![0usize; self.n];
        let mut j = self.n;
        let mut b = blocks;
        while b > 0 {
            let k = self.parent[b * w + j];
            for pos in k..j {
                assignment[order[pos]] = b - 1;
            }
            j = k;
            b -= 1;
        }
        assignment
    }
}

impl OptimalDp {
    /// Builds one `(order, tables)` pass per ordering, sharing the cached
    /// sort orders and prefix sums across instances of the same fitted
    /// market.
    fn build_passes<'a>(
        artifacts: &'a crate::cache::MarketArtifacts,
        market: &dyn TransitMarket,
        b_cap: usize,
        threads: usize,
    ) -> Vec<(&'a [usize], DpTables)> {
        let n = market.n_flows();
        let terms = market.score_terms();
        ORDERINGS
            .into_iter()
            .enumerate()
            .map(|(slot, key)| {
                let order = artifacts.order(slot, || {
                    transit_obs::counter!("cache.order.builds").inc();
                    let values = Self::key_values(key, market);
                    let mut order: Vec<usize> = (0..n).collect();
                    order.sort_by(|&i, &j| {
                        values[i]
                            .partial_cmp(&values[j])
                            .expect("ordering keys are finite")
                            .then(i.cmp(&j))
                    });
                    order
                });
                let prefix = artifacts.prefix_sums(slot, || {
                    let mut pa = vec![0.0; n + 1];
                    let mut pb = vec![0.0; n + 1];
                    for (pos, &flow) in order.iter().enumerate() {
                        pa[pos + 1] = pa[pos] + terms.a[flow];
                        pb[pos + 1] = pb[pos] + terms.b[flow];
                    }
                    crate::cache::PrefixSums { a: pa, b: pb }
                });
                let memo = artifacts.segment_memo(slot, || {
                    let n_pairs = n * (n + 1) / 2;
                    if n_pairs > crate::cache::SEGMENT_MEMO_MAX_ENTRIES {
                        return None;
                    }
                    transit_obs::counter!("cache.segment_memo.builds").inc();
                    let (pa, pb) = (&prefix.a, &prefix.b);
                    let mut m = vec![0.0; n_pairs];
                    for to in 1..=n {
                        let base = to * (to - 1) / 2;
                        for (from, cell) in m[base..base + to].iter_mut().enumerate() {
                            *cell = terms.score(pa[to] - pa[from], pb[to] - pb[from]);
                        }
                    }
                    Some(m)
                });
                (order, DpTables::build(terms, prefix, memo, b_cap, threads))
            })
            .collect()
    }

    /// Picks the winning (pass, block count) for a bundle budget: the
    /// per-ordering first-strict-max block count, then strict `>` between
    /// orderings in `ORDERINGS` declaration order — the same tie-breaks
    /// the per-point path applied, so winners are identical.
    fn pick(passes: &[(&[usize], DpTables)], budget: usize) -> (usize, usize) {
        let mut best: Option<(usize, usize, f64)> = None;
        for (pi, (_, tables)) in passes.iter().enumerate() {
            let blocks = tables.best_block_count(budget);
            let score = tables.score_at(blocks);
            if best.as_ref().is_none_or(|&(_, _, s)| score > s) {
                best = Some((pi, blocks, score));
            }
        }
        let (pi, blocks, _) = best.expect("at least one ordering evaluated");
        (pi, blocks)
    }
}

impl BundlingStrategy for OptimalDp {
    fn name(&self) -> &'static str {
        "optimal"
    }

    fn bundle(&self, market: &dyn TransitMarket, n_bundles: usize) -> Result<Bundling> {
        if n_bundles == 0 {
            return Err(TransitError::ZeroBundles);
        }
        let n = market.n_flows();
        if n == 0 {
            return Err(TransitError::EmptyFlowSet);
        }
        let _span = transit_obs::debug_span!("optimal_dp.bundle", n_bundles = n_bundles);
        transit_obs::counter!("bundling.dp.builds").inc();
        // Sort orders depend only on the fitted market, so they are shared
        // across instances via the process-wide fingerprint cache.
        let artifacts = crate::cache::artifacts_for(market);
        let passes = Self::build_passes(&artifacts, market, n_bundles, self.effective_threads());
        let (pi, blocks) = Self::pick(&passes, n_bundles);
        let (order, tables) = &passes[pi];
        Bundling::new(tables.reconstruct(order, blocks), n_bundles)
    }

    fn bundle_series(
        &self,
        market: &dyn TransitMarket,
        max_bundles: usize,
    ) -> Result<Vec<Bundling>> {
        if max_bundles == 0 {
            return Ok(Vec::new());
        }
        let n = market.n_flows();
        if n == 0 {
            return Err(TransitError::EmptyFlowSet);
        }
        let _span = transit_obs::debug_span!("optimal_dp.bundle_series", max_bundles = max_bundles);
        transit_obs::counter!("bundling.dp.builds").inc();
        let artifacts = crate::cache::artifacts_for(market);
        // One table build per ordering covers every bundle count.
        let passes = Self::build_passes(&artifacts, market, max_bundles, self.effective_threads());
        (1..=max_bundles)
            .map(|b| {
                let (pi, blocks) = Self::pick(&passes, b);
                let (order, tables) = &passes[pi];
                Bundling::new(tables.reconstruct(order, blocks), b)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::LinearCost;
    use crate::demand::ced::CedAlpha;
    use crate::demand::logit::LogitAlpha;
    use crate::fitting::{fit_ced, fit_logit};
    use crate::flow::TrafficFlow;
    use crate::market::{CedMarket, LogitMarket};

    fn flows(seedish: u64, n: usize) -> Vec<TrafficFlow> {
        // Deterministic pseudo-random flows without an RNG dependency.
        (0..n)
            .map(|i| {
                let x = ((i as u64 + 1) * (seedish * 2_654_435_761 % 1_000_003)) as f64;
                let demand = 1.0 + (x % 97.0);
                let distance = 1.0 + (x % 1409.0);
                TrafficFlow::new(i as u32, demand, distance)
            })
            .collect()
    }

    fn ced(fs: &[TrafficFlow]) -> CedMarket {
        CedMarket::new(
            fit_ced(
                fs,
                &LinearCost::new(0.2).unwrap(),
                CedAlpha::new(1.1).unwrap(),
                20.0,
            )
            .unwrap(),
        )
        .unwrap()
    }

    fn logit(fs: &[TrafficFlow]) -> LogitMarket {
        LogitMarket::new(
            fit_logit(
                fs,
                &LinearCost::new(0.2).unwrap(),
                LogitAlpha::new(1.1).unwrap(),
                20.0,
                0.2,
            )
            .unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn exhaustive_agrees_with_per_flow_when_bundles_ample() {
        let fs = flows(3, 5);
        let m = ced(&fs);
        let b = OptimalExhaustive.bundle(&m, 5).unwrap();
        let profit = m.profit(&b).unwrap();
        assert!((profit - m.max_profit()).abs() / m.max_profit() < 1e-9);
    }

    #[test]
    fn exhaustive_single_bundle_is_blended() {
        let fs = flows(5, 6);
        let m = ced(&fs);
        let b = OptimalExhaustive.bundle(&m, 1).unwrap();
        assert_eq!(b.occupied_bundles(), 1);
        let profit = m.profit(&b).unwrap();
        assert!((profit - m.original_profit()).abs() / m.original_profit() < 1e-9);
    }

    #[test]
    fn dp_matches_exhaustive_on_small_ced_instances() {
        for seed in [1u64, 2, 7, 13, 42] {
            let fs = flows(seed, 8);
            let m = ced(&fs);
            for b in 1..=4 {
                let ex = OptimalExhaustive.bundle(&m, b).unwrap();
                let dp = OptimalDp::new().bundle(&m, b).unwrap();
                let pe = m.profit(&ex).unwrap();
                let pd = m.profit(&dp).unwrap();
                assert!(
                    (pe - pd).abs() / pe < 1e-9,
                    "seed {seed} b {b}: exhaustive {pe} vs dp {pd}"
                );
            }
        }
    }

    #[test]
    fn dp_matches_exhaustive_on_small_logit_instances() {
        for seed in [1u64, 3, 9] {
            let fs = flows(seed, 7);
            let m = logit(&fs);
            for b in 1..=3 {
                let ex = OptimalExhaustive.bundle(&m, b).unwrap();
                let dp = OptimalDp::new().bundle(&m, b).unwrap();
                let pe = m.profit(&ex).unwrap();
                let pd = m.profit(&dp).unwrap();
                assert!(
                    (pe - pd).abs() / pe.abs().max(1e-12) < 1e-9,
                    "seed {seed} b {b}: exhaustive {pe} vs dp {pd}"
                );
            }
        }
    }

    #[test]
    fn dp_profit_is_monotone_in_bundles() {
        let fs = flows(11, 20);
        let m = ced(&fs);
        let mut last = f64::NEG_INFINITY;
        for b in 1..=6 {
            let bundling = OptimalDp::new().bundle(&m, b).unwrap();
            let profit = m.profit(&bundling).unwrap();
            assert!(
                profit >= last - 1e-9,
                "profit decreased at {b} bundles: {profit} < {last}"
            );
            last = profit;
        }
    }

    #[test]
    fn dp_dominates_every_heuristic() {
        use crate::bundling::StrategyKind;
        let fs = flows(17, 25);
        let m = ced(&fs);
        for b in 1..=6 {
            let opt = OptimalDp::new().bundle(&m, b).unwrap();
            let p_opt = m.profit(&opt).unwrap();
            for kind in [
                StrategyKind::CostWeighted,
                StrategyKind::ProfitWeighted,
                StrategyKind::DemandWeighted,
                StrategyKind::CostDivision,
                StrategyKind::IndexDivision,
            ] {
                let s = kind.build();
                let bundling = s.bundle(&m, b).unwrap();
                let p = m.profit(&bundling).unwrap();
                assert!(
                    p <= p_opt + 1e-9,
                    "{} beat optimal at {b} bundles: {p} > {p_opt}",
                    kind.label()
                );
            }
        }
    }

    #[test]
    fn exhaustive_rejects_large_instances() {
        let fs = flows(1, 20);
        let m = ced(&fs);
        match OptimalExhaustive.bundle(&m, 3) {
            Err(TransitError::InstanceTooLarge { .. }) => {}
            other => panic!("expected InstanceTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn tiled_dp_is_byte_identical_across_thread_counts() {
        // Wide enough that rows split into several 256-column tiles.
        // The scoped budget keeps the fan-out real on small machines
        // (dp_threads is a cap within the pool budget).
        let _budget = transit_pool::scoped_budget(8);
        let fs = flows(23, 600);
        let m = ced(&fs);
        let baseline = OptimalDp::with_threads(1).bundle_series(&m, 6).unwrap();
        for threads in [2usize, 8] {
            let tiled = OptimalDp::with_threads(threads)
                .bundle_series(&m, 6)
                .unwrap();
            assert_eq!(baseline, tiled, "dp_threads={threads} diverged");
        }
    }

    #[test]
    fn tiled_dp_is_byte_identical_across_pool_budgets() {
        // Same thread cap, varying pool budget: budget 1 must fall back
        // to the inline serial path with identical bytes.
        let fs = flows(29, 600);
        let m = ced(&fs);
        let baseline = {
            let _budget = transit_pool::scoped_budget(1);
            OptimalDp::with_threads(8).bundle_series(&m, 6).unwrap()
        };
        for budget in [2usize, 8] {
            let _budget = transit_pool::scoped_budget(budget);
            let run = OptimalDp::with_threads(8).bundle_series(&m, 6).unwrap();
            assert_eq!(baseline, run, "budget={budget} diverged");
        }
    }

    #[test]
    fn dp_handles_more_bundles_than_flows() {
        let fs = flows(2, 3);
        let m = ced(&fs);
        let b = OptimalDp::new().bundle(&m, 10).unwrap();
        let profit = m.profit(&b).unwrap();
        assert!((profit - m.max_profit()).abs() / m.max_profit() < 1e-9);
    }
}
