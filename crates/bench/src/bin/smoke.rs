//! Bounded end-to-end smokes for `scripts/check.sh`. Every subcommand
//! checks absolute bounds that hold on any machine: it reads no
//! baseline and writes no ledger. Regressions against the parent commit
//! are the repository benchmark's job (`perfbench/`, like for like on
//! the same machine).
//!
//! ```text
//! smoke large-n N SECS    # generate → sharded ingest → fit → coalesce →
//!                         # heuristic capture curves at N raw flows:
//!                         # ≥ 90% of flows measured, coalesce ratio ≥
//!                         # half the replication, within SECS
//! smoke ingest N SECS     # N raw flows encoded once, ingested serially
//!                         # and through the parallel fast path: identical
//!                         # collector state and stats, within SECS
//! smoke store DIR         # fig8 cold against a fresh store in DIR, then
//!                         # warm with --resume: all misses, then all hits,
//!                         # byte-identical JSON, warm ≥ 5× faster
//! smoke obs DIR           # fig8 with the journal and the live /metrics
//!                         # endpoint: mid-run scrapes, valid events.jsonl
//!                         # and trace.json in DIR, ≤ 5% span overhead,
//!                         # ≥ 50% parallel efficiency
//! smoke obs --validate-only DIR
//!                         # only validate DIR/events.jsonl + trace.json
//! ```

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use transit_core::bundling::StrategyKind;
use transit_core::capture::capture_curve;
use transit_core::coalesce::CoalescedMarket;
use transit_core::cost::LinearCost;
use transit_core::demand::ced::CedAlpha;
use transit_core::fitting::fit_ced;
use transit_core::market::CedMarket;
use transit_datasets::{generate_replicated, run_pipeline, Network, PipelineConfig};
use transit_experiments::{runners, ExperimentConfig};

const USAGE: &str = "usage: smoke large-n N SECS | smoke ingest N SECS | smoke store DIR \
                     | smoke obs [--validate-only] DIR";

/// Distinct base flows of the replicated large-n and ingest datasets.
const DISTINCT_FLOWS: usize = 1_000;
/// Bundle budget of the large-n capture curves.
const B_MAX: usize = 10;
/// fig8: 3 panels × 6 strategies.
const FIG8_ITEMS: usize = 18;
/// fig8 stage count at quick settings: 3 dataset nodes + 18 captures.
const FIG8_STAGES: usize = 21;
/// Warm-over-cold wall-clock factor `smoke store` requires.
const MIN_WARM_SPEEDUP: f64 = 5.0;
/// Span-collection overhead budget of `smoke obs`, percent.
const OVERHEAD_BUDGET_PCT: f64 = 5.0;
/// `smoke obs` requires the threads = N speedup to reach this fraction
/// of the usable parallelism `min(cores, fig8 items)`: 1.0× on 2 cores,
/// 2.0× on 4.
const MIN_PARALLEL_EFFICIENCY: f64 = 0.5;
/// Timed pairs behind each paired-median ratio. One default-size fig8
/// takes ~30 ms on one thread, so a single run is dominated by
/// scheduler noise; the median of per-pair ratios is not.
const PAIRS: usize = 16;

fn fail(failures: &[String]) -> ! {
    for f in failures {
        eprintln!("smoke FAILED: {f}");
    }
    std::process::exit(1);
}

fn cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Phase timings and structure of one [`million_flow`] run.
struct MillionFlowResult {
    n_raw: usize,
    n_distinct: usize,
    n_measured: usize,
    n_groups: usize,
    generate_sec: f64,
    ingest_sec: f64,
    fit_sec: f64,
    coalesce_sec: f64,
    curves_sec: f64,
}

impl MillionFlowResult {
    /// Raw measured flows per coalesced group.
    fn coalesce_ratio(&self) -> f64 {
        self.n_measured as f64 / self.n_groups as f64
    }

    fn total_sec(&self) -> f64 {
        self.generate_sec + self.ingest_sec + self.fit_sec + self.coalesce_sec + self.curves_sec
    }
}

/// Runs the generate → ingest → fit → coalesce → bundle path at `n_raw`
/// raw flows, replicated from [`DISTINCT_FLOWS`] distinct base flows so
/// ε = 0 coalescing has real duplicates to merge (the shape whole-ISP
/// traffic matrices have). The curves phase fans the heuristic
/// strategies out on the pool; the first to need the market's sort
/// order, prefix sums and segment memo builds them, the rest reuse them.
fn million_flow(n_raw: usize) -> MillionFlowResult {
    let n_distinct = DISTINCT_FLOWS.min(n_raw.max(2));
    let replication = (n_raw / n_distinct).max(1);
    let shards = cores().min(8);

    let t = Instant::now();
    let dataset = generate_replicated(Network::EuIsp, n_distinct, replication, 42);
    let generate_sec = t.elapsed().as_secs_f64();

    // Unsampled measurement: every replica carries a unique flow key, so
    // the collector recovers (nearly) all of them; only flows too small
    // to emit one packet in the window drop out.
    let t = Instant::now();
    let out = run_pipeline(
        &dataset,
        PipelineConfig {
            sampling_rate: 1,
            routers_on_path: 2,
            window_secs: 60.0,
            packet_bytes: 1_500,
            ingest_shards: shards,
            ingest_workers: shards,
        },
    );
    let ingest_sec = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let cost = LinearCost::new(0.2).expect("valid theta");
    let alpha = CedAlpha::new(1.1).expect("valid alpha");
    let fit = fit_ced(&out.measured_flows, &cost, alpha, 20.0).expect("CED fits measured flows");
    let market = CedMarket::new(fit).expect("market builds");
    let fit_sec = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let coalesced = CoalescedMarket::new(market).expect("market coalesces");
    let coalesce_sec = t.elapsed().as_secs_f64();

    let kinds: Vec<StrategyKind> = StrategyKind::ALL
        .into_iter()
        .filter(|k| *k != StrategyKind::Optimal)
        .collect();
    let t = Instant::now();
    transit_pool::run_indexed(0, &kinds, |_, kind| {
        capture_curve(&coalesced, kind.build().as_ref(), B_MAX).expect("capture curve");
    });
    let curves_sec = t.elapsed().as_secs_f64();

    MillionFlowResult {
        n_raw,
        n_distinct,
        n_measured: coalesced.n_raw_flows(),
        n_groups: coalesced.n_groups(),
        generate_sec,
        ingest_sec,
        fit_sec,
        coalesce_sec,
        curves_sec,
    }
}

fn large_n(n_raw: usize, budget_secs: f64) {
    let mf = million_flow(n_raw);
    println!(
        "large-n: {} raw → {} measured → {} groups; generate {:.3}s, ingest {:.3}s, \
         fit {:.3}s, coalesce {:.3}s, curves {:.3}s",
        mf.n_raw,
        mf.n_measured,
        mf.n_groups,
        mf.generate_sec,
        mf.ingest_sec,
        mf.fit_sec,
        mf.coalesce_sec,
        mf.curves_sec
    );
    let mut failures = Vec::new();
    if (mf.n_measured as f64) < 0.9 * mf.n_raw as f64 {
        failures.push(format!(
            "only {} of {} raw flows measured (<90%)",
            mf.n_measured, mf.n_raw
        ));
    }
    let min_ratio = (mf.n_raw / mf.n_distinct) as f64 * 0.5;
    if mf.coalesce_ratio() < min_ratio {
        failures.push(format!(
            "coalesce ratio {:.1} < {min_ratio:.1}: ε = 0 coalescing is not merging replicas",
            mf.coalesce_ratio()
        ));
    }
    if mf.total_sec() > budget_secs {
        failures.push(format!(
            "{} raw flows took {:.1}s end to end, budget {budget_secs:.0}s",
            mf.n_raw,
            mf.total_sec()
        ));
    }
    if !failures.is_empty() {
        fail(&failures);
    }
    println!(
        "large-n: OK ({:.2}s, budget {budget_secs:.0}s)",
        mf.total_sec()
    );
}

/// Encodes `n_raw` flows to wire datagrams once, ingests them through
/// the serial path and the parallel fast path, and requires identical
/// collector state and stats.
fn ingest(n_raw: usize, budget_secs: f64) {
    use transit_netflow::{Collector, Exporter, FlowKey, SystematicSampler};

    let start = Instant::now();
    let n_distinct = DISTINCT_FLOWS.min(n_raw.max(2));
    let replication = (n_raw / n_distinct).max(1);
    let dataset = generate_replicated(Network::EuIsp, n_distinct, replication, 42);

    let mut wire = Vec::new();
    for router in 0..2u8 {
        let mut e = Exporter::new(router, SystematicSampler::new(1));
        for (flow, &(src, dst)) in dataset.flows.iter().zip(&dataset.endpoints) {
            let key = FlowKey {
                src_addr: src,
                dst_addr: dst,
                src_port: 40_000 + (flow.id.0 % 10_000) as u16,
                dst_port: 443,
                protocol: 6,
            };
            e.observe_packets(key, 3, 1_500);
        }
        for pkt in e.flush(0) {
            wire.push(pkt.encode());
        }
    }

    let t = Instant::now();
    let mut serial = Collector::with_shards_and_workers(1, 1);
    serial.ingest_batch(&wire);
    let serial_sec = t.elapsed().as_secs_f64();

    let width = cores().min(8);
    let t = Instant::now();
    let mut parallel = Collector::with_shards_and_workers(width, width);
    parallel.ingest_batch(&wire);
    let parallel_sec = t.elapsed().as_secs_f64();

    let mut failures = Vec::new();
    if serial.measured_flows() != parallel.measured_flows() {
        failures.push("parallel ingest diverged from serial state".to_string());
    }
    if serial.stats() != parallel.stats() {
        failures.push("parallel ingest diverged from serial stats".to_string());
    }
    let (datagrams, records, _) = serial.stats();
    for (name, sec) in [("serial", serial_sec), ("parallel", parallel_sec)] {
        println!(
            "ingest: {name} ingested {datagrams} datagrams / {records} records in {sec:.3}s \
             ({:.0} records/sec)",
            records as f64 / sec
        );
    }
    let total = start.elapsed().as_secs_f64();
    if total > budget_secs {
        failures.push(format!(
            "{n_raw} raw flows took {total:.1}s end to end, budget {budget_secs:.0}s"
        ));
    }
    if !failures.is_empty() {
        fail(&failures);
    }
    println!("ingest: OK (serial and parallel identical, {total:.2}s, budget {budget_secs:.0}s)");
}

/// Runs quick fig8 against `store`, returning (figure JSON, hits,
/// misses, wall seconds).
fn fig8_stored(store: &Path, resume: bool) -> (String, usize, usize, f64) {
    let config = ExperimentConfig {
        store: Some(store.to_string_lossy().into_owned()),
        resume,
        ..ExperimentConfig::quick()
    };
    let start = Instant::now();
    let result = runners::run("fig8", &config)
        .expect("fig8 runs")
        .expect("fig8 known");
    let seconds = start.elapsed().as_secs_f64();
    if result.stage_reports.len() != FIG8_STAGES {
        fail(&[format!(
            "fig8 graph has {} stages, expected {FIG8_STAGES}",
            result.stage_reports.len()
        )]);
    }
    let hits = result.stage_reports.iter().filter(|r| r.hit).count();
    (result.to_json(), hits, FIG8_STAGES - hits, seconds)
}

/// fig8 cold against a fresh store, then warm with `--resume`: the warm
/// run must recompute nothing, emit the cold run's bytes, and be at
/// least [`MIN_WARM_SPEEDUP`] faster (a slower warm run means reading
/// artifacts costs more than recomputing them).
fn store(dir: &Path) {
    std::fs::remove_dir_all(dir).ok();
    let (cold_json, cold_hits, cold_misses, cold_sec) = fig8_stored(dir, false);
    if cold_hits != 0 {
        fail(&[format!(
            "cold run saw {cold_hits} store hits in a fresh store"
        )]);
    }
    println!("store: cold fig8 computed {cold_misses} stages in {cold_sec:.3}s");

    let (warm_json, warm_hits, warm_misses, warm_sec) = fig8_stored(dir, true);
    let speedup = cold_sec / warm_sec;
    println!(
        "store: warm fig8 hit {warm_hits} stages in {warm_sec:.3}s \
         ({speedup:.1}x faster, gate {MIN_WARM_SPEEDUP:.0}x)"
    );
    let mut failures = Vec::new();
    if warm_misses != 0 {
        failures.push(format!(
            "warm --resume recomputed {warm_misses} stages (must be zero)"
        ));
    }
    if warm_json != cold_json {
        failures.push("warm figure JSON differs from the cold run's bytes".to_string());
    }
    if speedup < MIN_WARM_SPEEDUP {
        failures.push(format!(
            "warm resume only {speedup:.1}x faster than cold (gate {MIN_WARM_SPEEDUP:.0}x)"
        ));
    }
    if !failures.is_empty() {
        fail(&failures);
    }
    std::fs::remove_dir_all(dir).ok();
    println!("store: OK");
}

fn quick_config(threads: usize, log_level: transit_obs::Level) -> ExperimentConfig {
    ExperimentConfig {
        threads,
        log_level,
        ..ExperimentConfig::quick()
    }
}

/// The fig8 that `smoke obs` times: the default size (n = 400). A quick
/// fig8 (n = 120) takes a few ms, where pool dispatch costs as much as
/// the work, so its ratios measure dispatch rather than spans or scaling.
fn timed_config(threads: usize, log_level: transit_obs::Level) -> ExperimentConfig {
    ExperimentConfig {
        threads,
        log_level,
        ..ExperimentConfig::default()
    }
}

fn run_fig8(cfg: &ExperimentConfig) {
    transit_obs::set_log_level(cfg.log_level);
    runners::run("fig8", cfg)
        .expect("fig8 runs")
        .expect("fig8 known");
}

fn timed_fig8(cfg: &ExperimentConfig) -> f64 {
    let start = Instant::now();
    run_fig8(cfg);
    start.elapsed().as_secs_f64()
}

/// Median over [`PAIRS`] back-to-back runs of `t(a) / t(b)`, alternating
/// which config runs first so neither side always gets the warmer
/// caches. A ratio within a pair sees the same scheduler phase on both
/// sides; the median drops the pairs a phase change split.
fn paired_median_ratio(a: &ExperimentConfig, b: &ExperimentConfig) -> f64 {
    let mut ratios: Vec<f64> = (0..PAIRS)
        .map(|i| {
            let (ta, tb) = if i % 2 == 0 {
                let ta = timed_fig8(a);
                (ta, timed_fig8(b))
            } else {
                let tb = timed_fig8(b);
                (timed_fig8(a), tb)
            };
            ta / tb
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    (ratios[PAIRS / 2 - 1] + ratios[PAIRS / 2]) / 2.0
}

/// The threads = N speedup floor on a `cores`-core machine: at most
/// `min(cores, items)` fig8 items run at once, so the floor is a fixed
/// parallel efficiency over that width.
fn speedup_floor(cores: usize) -> f64 {
    MIN_PARALLEL_EFFICIENCY * cores.min(FIG8_ITEMS) as f64
}

/// One-shot HTTP GET, returning (status line, body).
fn http_get(addr: SocketAddr, path: &str) -> Result<(String, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n")
        .map_err(|e| format!("send request: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read response: {e}"))?;
    let status = response.lines().next().unwrap_or_default().to_string();
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// Validates `dir/events.jsonl` and `dir/trace.json`; returns
/// human-readable failures (empty = pass).
fn validate_artifacts(dir: &Path) -> Vec<String> {
    let mut failures = Vec::new();

    let events_path = dir.join(transit_obs::journal::EVENTS_FILE);
    match transit_obs::trace::read_events(&events_path) {
        Ok(events) => {
            if events.is_empty() {
                failures.push(format!("{}: no events recorded", events_path.display()));
            }
            if !events
                .iter()
                .any(|e| e.kind == transit_obs::journal::EventKind::Phase)
            {
                failures.push(format!(
                    "{}: no phase marker (runners should emit one per experiment)",
                    events_path.display()
                ));
            }
        }
        Err(e) => failures.push(format!("{}: {e}", events_path.display())),
    }

    let trace_path = dir.join("trace.json");
    let doc: Option<serde_json::Value> = match std::fs::read_to_string(&trace_path) {
        Ok(text) => match serde_json::from_str(&text) {
            Ok(doc) => Some(doc),
            Err(e) => {
                failures.push(format!("{}: invalid JSON: {e}", trace_path.display()));
                None
            }
        },
        Err(e) => {
            failures.push(format!("{}: {e}", trace_path.display()));
            None
        }
    };
    if let Some(doc) = doc {
        match doc.get("traceEvents").and_then(|t| t.as_array()) {
            Some(events) => {
                // Per-tid stack balance: every E closes the most recent B.
                let mut stacks: std::collections::BTreeMap<i64, Vec<String>> =
                    std::collections::BTreeMap::new();
                for e in events {
                    let ph = e.get("ph").and_then(|p| p.as_str()).unwrap_or("");
                    let tid = e.get("tid").and_then(|t| t.as_f64()).unwrap_or(-1.0) as i64;
                    let name = e
                        .get("name")
                        .and_then(|n| n.as_str())
                        .unwrap_or("")
                        .to_string();
                    match ph {
                        "B" => stacks.entry(tid).or_default().push(name),
                        "E" if stacks.entry(tid).or_default().pop().is_none() => {
                            failures.push(format!(
                                "{}: tid {tid} has E without matching B",
                                trace_path.display()
                            ));
                        }
                        _ => {}
                    }
                }
                for (tid, stack) in stacks {
                    if !stack.is_empty() {
                        failures.push(format!(
                            "{}: tid {tid} has {} unclosed B event(s): {stack:?}",
                            trace_path.display(),
                            stack.len()
                        ));
                    }
                }
            }
            None => failures.push(format!(
                "{}: missing traceEvents array",
                trace_path.display()
            )),
        }
    }
    failures
}

/// The observability path in one process: journal and live endpoint
/// up, fig8 on a worker while the main thread scrapes `/healthz` and
/// `/metrics`, the written artifacts validated, then the span overhead
/// and the parallel efficiency measured with the journal off.
fn obs(dir: &Path) {
    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir).expect("create output dir");

    transit_obs::journal::enable(dir).expect("journal enables");
    let server = transit_obs::serve_metrics("127.0.0.1:0").expect("metrics server binds");
    let addr = server.addr();
    println!(
        "obs: serving on http://{addr}, journaling to {}",
        dir.display()
    );

    // The worker reruns fig8 until the main thread has finished a full
    // scrape round (or given up on a failure), so at least one round
    // overlaps a run however fast fig8 gets.
    let stop = AtomicBool::new(false);
    let done = AtomicBool::new(false);
    let mut failures: Vec<String> = Vec::new();
    let mut mid_run_scrapes = 0u32;
    let runs = std::thread::scope(|scope| {
        let (stop, done) = (&stop, &done);
        let worker = scope.spawn(move || {
            let mut runs = 0u32;
            while !stop.load(Ordering::Acquire) {
                run_fig8(&quick_config(0, transit_obs::Level::Info));
                runs += 1;
            }
            done.store(true, Ordering::Release);
            runs
        });
        while !done.load(Ordering::Acquire) {
            match http_get(addr, "/healthz") {
                Ok((status, body)) => {
                    if !status.contains("200") || body != "ok\n" {
                        failures.push(format!("/healthz: status {status:?} body {body:?}"));
                    }
                }
                Err(e) => failures.push(format!("/healthz: {e}")),
            }
            match http_get(addr, "/metrics") {
                Ok((status, body)) => {
                    if !status.contains("200") {
                        failures.push(format!("/metrics: status {status:?}"));
                    } else if let Err(e) = transit_obs::metrics::validate_prometheus_text(&body) {
                        failures.push(format!("/metrics: not valid Prometheus text: {e}"));
                    }
                }
                Err(e) => failures.push(format!("/metrics: {e}")),
            }
            // The worker sets `done` only after it saw `stop`, which is
            // set only below: a round that ends before `done` overlapped a run.
            if !done.load(Ordering::Acquire) {
                mid_run_scrapes += 1;
            }
            stop.store(true, Ordering::Release);
            if !failures.is_empty() {
                break; // stop scraping; the worker still joins below
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        worker.join().expect("fig8 worker panicked")
    });
    if mid_run_scrapes == 0 {
        failures.push("no /healthz + /metrics scrape overlapped a fig8 run".to_string());
    }
    if !failures.is_empty() {
        fail(&failures);
    }
    println!(
        "obs: {mid_run_scrapes} mid-run scrape(s) of /healthz + /metrics \
         over {runs} fig8 run(s) OK"
    );

    // write_profile flushes the journal and exports trace.json.
    let records = vec![transit_experiments::profile::RunRecord {
        id: "fig8".to_string(),
        stages: Vec::new(),
    }];
    transit_experiments::profile::write_profile(
        dir,
        &quick_config(0, transit_obs::Level::Info),
        &records,
    )
    .expect("profile sidecars write");
    transit_obs::journal::disable();
    let failures = validate_artifacts(dir);
    if !failures.is_empty() {
        fail(&failures);
    }
    println!("obs: events.jsonl + trace.json valid (balanced B/E)");

    let cores = cores();
    let quiet1 = timed_config(1, transit_obs::Level::Quiet);
    run_fig8(&quiet1); // warmup
    let overhead_pct =
        (paired_median_ratio(&timed_config(1, transit_obs::Level::Info), &quiet1) - 1.0) * 100.0;
    println!(
        "obs: span overhead {overhead_pct:.2}% (median of {PAIRS} info/quiet pairs, \
         budget {OVERHEAD_BUDGET_PCT:.0}%)"
    );
    let mut failures = Vec::new();
    if overhead_pct > OVERHEAD_BUDGET_PCT {
        failures.push(format!(
            "span overhead {overhead_pct:.2}% exceeds the {OVERHEAD_BUDGET_PCT:.0}% budget"
        ));
    }
    if cores > 1 {
        let speedup = paired_median_ratio(&quiet1, &timed_config(cores, transit_obs::Level::Quiet));
        let floor = speedup_floor(cores);
        println!(
            "obs: threads={cores} speedup {speedup:.2}x (median of {PAIRS} pairs, floor {floor:.2}x)"
        );
        if speedup < floor {
            failures.push(format!(
                "threads={cores} speedup {speedup:.2}x < {floor:.2}x ({:.0}% parallel \
                 efficiency over min({cores} cores, {FIG8_ITEMS} items))",
                MIN_PARALLEL_EFFICIENCY * 100.0
            ));
        }
    } else {
        println!("obs: one core available; no parallel-efficiency check");
    }
    if !failures.is_empty() {
        fail(&failures);
    }
    println!("obs: OK");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let usage = || -> ! {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let sized = |n: &str, secs: &str| -> (usize, f64) {
        match (n.parse(), secs.parse()) {
            (Ok(n), Ok(secs)) => (n, secs),
            _ => usage(),
        }
    };
    match args.as_slice() {
        ["large-n", n, secs] => {
            let (n, secs) = sized(n, secs);
            transit_obs::set_log_level(transit_obs::Level::Quiet);
            large_n(n, secs);
        }
        ["ingest", n, secs] => {
            let (n, secs) = sized(n, secs);
            transit_obs::set_log_level(transit_obs::Level::Quiet);
            ingest(n, secs);
        }
        ["store", dir] => store(Path::new(dir)),
        ["obs", "--validate-only", dir] => {
            let failures = validate_artifacts(Path::new(dir));
            if !failures.is_empty() {
                fail(&failures);
            }
            println!("obs: OK ({dir} artifacts valid)");
        }
        ["obs", dir] if !dir.starts_with('-') => obs(Path::new(dir)),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::speedup_floor;

    #[test]
    fn speedup_floor_is_attainable_on_two_cores_and_never_below_two_from_four() {
        assert_eq!(speedup_floor(2), 1.0);
        for cores in 4..=64 {
            assert!(speedup_floor(cores) >= 2.0, "{cores} cores");
            assert!(speedup_floor(cores) <= cores as f64);
        }
    }
}
