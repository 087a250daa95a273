//! Observability smoke (the `obs-smoke` step of `scripts/check.sh`):
//! exercises the full observability-v2 path in one process and fails
//! loudly when any piece breaks.
//!
//! What it does, in order:
//!
//! 1. Enables the event journal under the output dir and binds the live
//!    metrics server on `127.0.0.1:0`.
//! 2. Runs fig8 (quick config) on a worker thread while the main thread
//!    scrapes `/healthz` and `/metrics` **mid-run**, validating the
//!    Prometheus text each time.
//! 3. Writes the profile sidecars (manifest + metrics.prom), finalizes
//!    the journal into `trace.json`, and validates `events.jsonl` and
//!    `trace.json` (schema, parseability, balanced B/E per thread).
//! 4. With the journal off again, measures fig8 items/sec at quiet vs
//!    info to derive the span-overhead percentage, gated at
//!    [`OVERHEAD_BUDGET_PCT`] (the budget sweep_smoke documents).
//! 5. Appends one `source: "obs-smoke"` line to the bench-history
//!    ledger.
//!
//! ```text
//! obs_smoke [--dir DIR] [--history PATH] [--skip-history]
//! obs_smoke --validate-only DIR    # just validate DIR/events.jsonl and
//!                                  # DIR/trace.json, no run
//! ```

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use transit_experiments::{runners, ExperimentConfig};

/// Span-collection overhead budget, percent (same budget the
/// sweep-smoke report documents for its `obs_overhead_pct` field).
const OVERHEAD_BUDGET_PCT: f64 = 5.0;

/// Best-of reps for the overhead measurement (suppresses scheduler
/// noise; the quick config keeps each rep under a second).
const REPS: usize = 3;

const ITEMS_PER_RUN: usize = 18; // fig8: 3 panels x 6 strategies

fn quick_config(threads: usize, log_level: transit_obs::Level) -> ExperimentConfig {
    ExperimentConfig {
        threads,
        log_level,
        ..ExperimentConfig::quick()
    }
}

fn run_fig8(cfg: &ExperimentConfig) {
    transit_obs::set_log_level(cfg.log_level);
    runners::run("fig8", cfg).expect("fig8 runs").expect("fig8 known");
}

/// fig8 items/sec under `cfg`, best of [`REPS`].
fn items_per_sec(cfg: &ExperimentConfig) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        run_fig8(cfg);
        best = best.min(start.elapsed().as_secs_f64());
    }
    ITEMS_PER_RUN as f64 / best
}

/// Quiet and info items/sec at `threads = 1`, measured **interleaved**
/// (quiet, info, quiet, info, …) and best-of-[`REPS`] each — the same
/// scheme sweep_smoke uses. Sequential best-of blocks can report wild
/// overhead in either direction purely because the box changed speed
/// between the blocks; interleaving samples both levels under the same
/// scheduler phases.
fn items_per_sec_quiet_info_interleaved() -> (f64, f64) {
    let quiet_cfg = quick_config(1, transit_obs::Level::Quiet);
    let info_cfg = quick_config(1, transit_obs::Level::Info);
    let mut best_quiet = f64::INFINITY;
    let mut best_info = f64::INFINITY;
    for _ in 0..REPS {
        for (cfg, best) in [(&quiet_cfg, &mut best_quiet), (&info_cfg, &mut best_info)] {
            let start = Instant::now();
            run_fig8(cfg);
            *best = best.min(start.elapsed().as_secs_f64());
        }
    }
    (
        ITEMS_PER_RUN as f64 / best_quiet,
        ITEMS_PER_RUN as f64 / best_info,
    )
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

fn fail(failures: &[String]) -> ! {
    for f in failures {
        eprintln!("obs_smoke FAILED: {f}");
    }
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut dir = "target/obs-smoke".to_string();
    let mut history_path = transit_bench::history::HISTORY_FILE.to_string();
    let mut skip_history = false;
    let mut validate_only: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--dir" => dir = it.next().expect("--dir needs a path").clone(),
            "--history" => history_path = it.next().expect("--history needs a path").clone(),
            "--skip-history" => skip_history = true,
            "--validate-only" => {
                validate_only = Some(it.next().expect("--validate-only needs a dir").clone());
            }
            other => {
                eprintln!("unexpected argument {other:?}");
                std::process::exit(2);
            }
        }
    }

    if let Some(dir) = validate_only {
        let failures = validate_artifacts(Path::new(&dir));
        if !failures.is_empty() {
            fail(&failures);
        }
        println!("obs_smoke: OK ({dir} artifacts valid)");
        return;
    }

    let dir = Path::new(&dir);
    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir).expect("create output dir");

    // 1. Journal + live endpoint up before any work happens.
    transit_obs::journal::enable(dir).expect("journal enables");
    let server = transit_obs::serve_metrics("127.0.0.1:0").expect("metrics server binds");
    let addr = server.addr();
    println!("obs_smoke: serving on http://{addr}, journaling to {}", dir.display());

    // 2. fig8 on a worker; scrape the endpoint while it runs.
    let done = AtomicBool::new(false);
    let mut failures: Vec<String> = Vec::new();
    let mut mid_run_scrapes = 0u32;
    std::thread::scope(|scope| {
        let done = &done;
        let worker = scope.spawn(move || {
            run_fig8(&quick_config(0, transit_obs::Level::Info));
            done.store(true, Ordering::Relaxed);
        });
        while !done.load(Ordering::Relaxed) {
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
                    } else if let Err(e) =
                        transit_obs::metrics::validate_prometheus_text(&body)
                    {
                        failures.push(format!("/metrics: not valid Prometheus text: {e}"));
                    }
                }
                Err(e) => failures.push(format!("/metrics: {e}")),
            }
            mid_run_scrapes += 1;
            if !failures.is_empty() {
                break; // stop scraping; the worker still joins below
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        worker.join().expect("fig8 worker panicked");
    });
    if !failures.is_empty() {
        fail(&failures);
    }
    println!("obs_smoke: {mid_run_scrapes} mid-run scrape(s) of /healthz + /metrics OK");

    // 3. Sidecars + journal finalization (write_profile flushes and
    //    exports trace.json), then artifact validation.
    let cfg = quick_config(0, transit_obs::Level::Info);
    let records = vec![transit_experiments::profile::RunRecord {
        id: "fig8".to_string(),
        stages: Vec::new(),
    }];
    transit_experiments::profile::write_profile(dir, &cfg, &records)
        .expect("profile sidecars write");
    transit_obs::journal::disable();
    let failures = validate_artifacts(dir);
    if !failures.is_empty() {
        fail(&failures);
    }
    println!("obs_smoke: events.jsonl + trace.json valid (balanced B/E)");

    // 4. Span-overhead measurement with the journal off, like-for-like
    //    with the sweep_smoke budget.
    let jobs_n = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    run_fig8(&quick_config(1, transit_obs::Level::Quiet)); // warmup
    let quiet_n = items_per_sec(&quick_config(jobs_n, transit_obs::Level::Quiet));
    let (quiet1, info1) = items_per_sec_quiet_info_interleaved();
    transit_obs::set_log_level(transit_obs::Level::Info);
    let overhead_pct = (quiet1 / info1 - 1.0) * 100.0;
    println!(
        "obs_smoke: fig8 quick {quiet1:.1} items/s (threads=1), {quiet_n:.1} (threads={jobs_n}), \
         span overhead {overhead_pct:.1}% (budget {OVERHEAD_BUDGET_PCT:.0}%)"
    );
    if overhead_pct > OVERHEAD_BUDGET_PCT {
        fail(&[format!(
            "span overhead {overhead_pct:.1}% exceeds the {OVERHEAD_BUDGET_PCT:.0}% budget"
        )]);
    }

    // 5. Ledger entry.
    if skip_history {
        println!("obs_smoke: OK (history append skipped)");
        return;
    }
    let entry = transit_bench::history::HistoryEntry {
        recorded_unix: transit_bench::history::now_unix(),
        source: "obs-smoke".to_string(),
        git_rev: Some(transit_obs::git_rev()),
        jobs_n: jobs_n as u64,
        single_core: jobs_n == 1,
        items_per_sec_jobs1: quiet1,
        items_per_sec_jobs_n: quiet_n,
        obs_overhead_pct: overhead_pct,
        million_flow_sec: std::collections::BTreeMap::new(),
        ingest_throughput: std::collections::BTreeMap::new(),
        store_sec: std::collections::BTreeMap::new(),
    };
    transit_bench::history::append(Path::new(&history_path), &entry)
        .expect("history ledger appends");
    println!("obs_smoke: OK (appended to {history_path})");
}
