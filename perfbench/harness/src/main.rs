//! In-process half of the repository benchmark (`perfbench/run.py`).
//!
//! `run.py` drives the two CLI workloads as fresh processes; everything
//! that must time a library call from outside runs here:
//!
//! * `isp` — one pass of the `isp-million` workload: set-up (replicated
//!   dataset + wire export), then a timed pass of collect → matrix →
//!   join → fit → coalesce → capture curves. `--trace 1` records
//!   bench-side spans (name, start, end, parent) around each layer call
//!   and writes them to `--spans-out` at the end; `--check 1` adds the
//!   grouped-profit check, outside the timed region.
//! * `generate` — `generate(net, 400, seed)` per network, timed on
//!   fixed inputs (reported on `repro-full`).
//! * `store` — `Store::load` / `Store::save` over a populated artifact
//!   store (reported on `repro-warm`).
//! * `exec` — runs one CLI pass and reports its wall time, CPU time and
//!   peak RSS.
//!
//! Each mode prints one JSON object as its last stdout line. Output
//! checks that fail are listed under `errors`; the exit code is 0 as
//! long as the measurement itself completed.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use bytes::Bytes;
use serde::Content;
use transit_core::bundling::StrategyKind;
use transit_core::capture::{capture_curve, CaptureCurve};
use transit_core::coalesce::CoalescedMarket;
use transit_core::cost::LinearCost;
use transit_core::demand::ced::CedAlpha;
use transit_core::fitting::fit_ced;
use transit_core::market::{CedMarket, TransitMarket};
use transit_datasets::{
    export_wire, generate, generate_replicated, join_measured, Dataset, Network, PipelineConfig,
};
use transit_netflow::{Collector, TrafficMatrix};
use transit_stage::{Fingerprint, Store};

/// Bundle counts per capture curve (Fig. 8's x-axis).
const B_MAX: usize = 10;
/// Collector shards and ingest workers (`collect_wire(…, 2, 2)`).
const INGEST_WIDTH: usize = 2;
/// Thread budget of the pass (`transit_pool::set_thread_budget`).
const THREAD_BUDGET: usize = 2;
/// Distinct flows of the replicated dataset; `--replication` sets the
/// copies of each (1000 for the million-flow pass).
const DISTINCT: usize = 1_000;
const WINDOW_SECS: f64 = 60.0;
/// The coalesce oracle's profit tolerance (`transit-testkit`):
/// `|π_grouped − π_raw| ≤ 1e-7 · (|π_raw| + 1)`.
const PROFIT_TOL: f64 = 1e-7;

/// The `sweep_smoke` million-flow measurement settings: unsampled, two
/// routers per path, 60 s window, 1500-byte packets.
fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        sampling_rate: 1,
        routers_on_path: 2,
        window_secs: WINDOW_SECS,
        packet_bytes: 1_500,
        ingest_shards: INGEST_WIDTH,
        ingest_workers: INGEST_WIDTH,
    }
}

// ---------------------------------------------------------------------------
// Process resource usage.

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s of
/// which `ru_maxrss` (KiB) is the first.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    _rest: [i64; 13],
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench-harness reads getrusage(2) and supports 64-bit Linux only");

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

/// `(user + system CPU seconds of all threads, peak resident MiB)` of
/// this process so far (`RUSAGE_SELF`) or of its waited-for children
/// (`RUSAGE_CHILDREN`).
fn rusage(who: i32) -> (f64, f64) {
    let mut u = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        _rest: [0; 13],
    };
    assert!(who == RUSAGE_SELF || who == RUSAGE_CHILDREN);
    // SAFETY: `u` is a live, writable value with the kernel's
    // `struct rusage` layout on this target (checked by the cfg above),
    // and `who` is one of the two valid values asserted above.
    let rc = unsafe { getrusage(who, &mut u) };
    assert_eq!(rc, 0, "getrusage cannot fail with valid arguments");
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    (secs(u.utime) + secs(u.stime), u.maxrss as f64 / 1024.0)
}

// ---------------------------------------------------------------------------
// Bench-side spans.

struct SpanRecord {
    name: String,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

/// Collects spans in memory; a disabled tracer records nothing and
/// never locks.
struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<SpanRecord>>,
}

struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: Option<usize>,
}

impl SpanGuard<'_> {
    fn id(&self) -> Option<usize> {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            let end = self.tracer.origin.elapsed().as_secs_f64();
            if let Ok(mut spans) = self.tracer.spans.lock() {
                spans[id].end = end;
            }
        }
    }
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn span(&self, name: impl Into<String>, parent: Option<usize>) -> SpanGuard<'_> {
        if !self.on {
            return SpanGuard {
                tracer: self,
                id: None,
            };
        }
        let start = self.origin.elapsed().as_secs_f64();
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans.push(SpanRecord {
            name: name.into(),
            start,
            end: f64::NAN,
            parent,
        });
        SpanGuard {
            tracer: self,
            id: Some(spans.len() - 1),
        }
    }

    fn to_content(&self) -> Content {
        let spans = self.spans.lock().expect("span list poisoned");
        Content::Seq(
            spans
                .iter()
                .map(|s| {
                    Content::Map(vec![
                        ("name".into(), Content::Str(s.name.clone())),
                        ("start".into(), Content::F64(s.start)),
                        ("end".into(), Content::F64(s.end)),
                        (
                            "parent".into(),
                            s.parent.map_or(Content::Null, |p| Content::U64(p as u64)),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

// ---------------------------------------------------------------------------
// The isp-million pass.

struct Input {
    dataset: Dataset,
    wire: Vec<Bytes>,
}

fn setup(seed: u64, replication: usize, tracer: &Tracer) -> Input {
    let dataset = {
        let _s = tracer.span("datasets.generate_replicated", None);
        generate_replicated(Network::EuIsp, DISTINCT, replication, seed)
    };
    let (wire, _) = {
        let _s = tracer.span("datasets.export", None);
        export_wire(&dataset, pipeline_config())
    };
    Input { dataset, wire }
}

/// The five heuristic strategies of Fig. 8 (everything but the DP).
fn heuristic_kinds() -> Vec<StrategyKind> {
    StrategyKind::ALL
        .into_iter()
        .filter(|k| *k != StrategyKind::Optimal)
        .collect()
}

struct PassOut {
    market: CoalescedMarket<CedMarket>,
    curves: Vec<CaptureCurve>,
    datagrams: u64,
    records: u64,
    decode_errors: u64,
    width: usize,
    busy_s: f64,
    curves_wall_s: f64,
    eval_calls: usize,
}

type CoreResult<T> = transit_core::error::Result<T>;

fn pass(input: &Input, tracer: &Tracer) -> CoreResult<PassOut> {
    let root = tracer.span("pass", None);
    let p = root.id();

    let (measured, (datagrams, records, decode_errors)) = {
        let _s = tracer.span("netflow.collect", p);
        let mut collector = Collector::with_shards_and_workers(INGEST_WIDTH, INGEST_WIDTH);
        collector.ingest_batch(&input.wire);
        (collector.measured_flows(), collector.stats())
    };
    let matrix = {
        let _s = tracer.span("netflow.matrix", p);
        TrafficMatrix::from_flows(&measured)
    };
    let flows = {
        let _s = tracer.span("datasets.join", p);
        join_measured(&input.dataset, &matrix, WINDOW_SECS)
    };
    let market = {
        let _s = tracer.span("core.fit", p);
        let fit = fit_ced(&flows, &LinearCost::new(0.2)?, CedAlpha::new(1.1)?, 20.0)?;
        CedMarket::new(fit)?
    };
    let coalesced = {
        let _s = tracer.span("core.coalesce", p);
        CoalescedMarket::new(market)?
    };

    let kinds = heuristic_kinds();
    let width = transit_pool::effective_width(0).min(kinds.len()).max(1);
    let t = Instant::now();
    let tasks = {
        let curves = tracer.span("pool.curves", p);
        let parent = curves.id();
        transit_pool::run_indexed(0, &kinds, |_, kind| {
            let strategy = kind.build();
            let task = tracer.span(format!("pool.task({})", strategy.name()), parent);
            let t = Instant::now();
            let curve = {
                let _s = tracer.span("core.capture", task.id());
                capture_curve(&coalesced, strategy.as_ref(), B_MAX)
            };
            let busy_s = t.elapsed().as_secs_f64();
            if tracer.on {
                // The search half of `capture_curve` once more, on its own:
                // evaluation is the capture time less this.
                let _s = tracer.span("core.search", task.id());
                std::hint::black_box(strategy.bundle_series(&coalesced, B_MAX)).ok();
            }
            (curve, busy_s)
        })
    };
    let curves_wall_s = t.elapsed().as_secs_f64();
    let busy_s = tasks.iter().map(|(_, s)| s).sum();
    let curves = tasks
        .into_iter()
        .map(|(c, _)| c)
        .collect::<CoreResult<Vec<_>>>()?;
    let eval_calls = curves.iter().map(|c| c.profit.len()).sum();
    drop(root);
    Ok(PassOut {
        market: coalesced,
        curves,
        datagrams,
        records,
        decode_errors,
        width,
        busy_s,
        curves_wall_s,
        eval_calls,
    })
}

/// Output checks run, by name, and the failures they found.
#[derive(Default)]
struct Checks {
    ran: BTreeMap<&'static str, u64>,
    errors: Vec<String>,
}

impl Checks {
    fn check(&mut self, name: &'static str, ok: bool, failure: impl FnOnce() -> String) {
        *self.ran.entry(name).or_insert(0) += 1;
        if !ok {
            self.errors.push(failure());
        }
    }
}

/// Output checks that hold for every pass.
fn check_pass(out: &PassOut, n_raw: usize, replication: usize, checks: &mut Checks) {
    checks.check("decode_errors", out.decode_errors == 0, || {
        format!("{} NetFlow decode errors", out.decode_errors)
    });
    let measured = out.market.n_raw_flows();
    checks.check(
        "recovered_frac",
        measured as f64 >= 0.9 * n_raw as f64,
        || format!("only {measured} of {n_raw} raw flows recovered (< 90%)"),
    );
    let ratio = out.market.coalesce_ratio();
    checks.check("coalesce_ratio", ratio >= replication as f64 / 2.0, || {
        format!("coalesce ratio {ratio:.1} below half the replication ({replication})")
    });
}

/// Every curve point's grouped profit against the raw market evaluated
/// on the expanded bundling (the coalesce oracle's delegation check).
fn check_grouped_profit(out: &PassOut, checks: &mut Checks) -> CoreResult<()> {
    for (kind, curve) in heuristic_kinds().into_iter().zip(&out.curves) {
        let bundlings = kind.build().bundle_series(&out.market, B_MAX)?;
        for (b, &grouped) in bundlings.iter().zip(&curve.profit) {
            let raw = out.market.inner().profit(&out.market.expand(b)?)?;
            let ok = (grouped - raw).abs() <= PROFIT_TOL * (raw.abs() + 1.0);
            checks.check("grouped_profit", ok, || {
                format!(
                    "{}: grouped profit {grouped} != raw {raw} at {} bundles",
                    curve.strategy,
                    b.n_bundles()
                )
            });
        }
    }
    Ok(())
}

fn f64s(v: &[f64]) -> Content {
    Content::Seq(v.iter().map(|&x| Content::F64(x)).collect())
}

fn curves_content(curves: &[CaptureCurve]) -> Content {
    Content::Seq(
        curves
            .iter()
            .map(|c| {
                Content::Map(vec![
                    ("strategy".into(), Content::Str(c.strategy.clone())),
                    (
                        "n_bundles".into(),
                        Content::Seq(
                            c.n_bundles
                                .iter()
                                .map(|&n| Content::U64(n as u64))
                                .collect(),
                        ),
                    ),
                    ("profit".into(), f64s(&c.profit)),
                    ("capture".into(), f64s(&c.capture)),
                ])
            })
            .collect(),
    )
}

/// One set-up and one pass — a fresh process per pass, so every pass
/// starts with cold process-wide caches and its peak RSS is its own.
fn isp(args: &Args) -> CoreResult<Content> {
    let seed = args.u64("seed", 42);
    let replication = args.usize("replication", 1_000);
    let n_raw = DISTINCT * replication;
    transit_pool::set_thread_budget(THREAD_BUDGET);
    transit_obs::set_log_level(transit_obs::Level::Quiet);
    let tracer = Tracer::new(args.usize("trace", 0) == 1);

    let t = Instant::now();
    let input = setup(seed, replication, &tracer);
    let setup_s = t.elapsed().as_secs_f64();

    let (cpu0, _) = rusage(RUSAGE_SELF);
    let t = Instant::now();
    let out = pass(&input, &tracer)?;
    let wall_s = t.elapsed().as_secs_f64();
    let (cpu1, peak_rss_mb) = rusage(RUSAGE_SELF);

    let mut checks = Checks::default();
    check_pass(&out, n_raw, replication, &mut checks);
    if args.usize("check", 0) == 1 {
        check_grouped_profit(&out, &mut checks)?;
    }

    let fields = vec![
        ("setup_s".into(), Content::F64(setup_s)),
        ("wall_s".into(), Content::F64(wall_s)),
        ("cpu_s".into(), Content::F64(cpu1 - cpu0)),
        ("peak_rss_mb".into(), Content::F64(peak_rss_mb)),
        (
            "checks".into(),
            Content::Map(
                checks
                    .ran
                    .iter()
                    .map(|(&k, &n)| (k.to_string(), Content::U64(n)))
                    .collect(),
            ),
        ),
        (
            "errors".into(),
            Content::Seq(checks.errors.into_iter().map(Content::Str).collect()),
        ),
        ("curves".into(), curves_content(&out.curves)),
        ("n_raw".into(), Content::U64(n_raw as u64)),
        ("records".into(), Content::U64(out.records)),
        ("datagrams".into(), Content::U64(out.datagrams)),
        (
            "measured".into(),
            Content::U64(out.market.n_raw_flows() as u64),
        ),
        ("groups".into(), Content::U64(out.market.n_groups() as u64)),
        ("width".into(), Content::U64(out.width as u64)),
        ("eval_calls".into(), Content::U64(out.eval_calls as u64)),
        ("curves_wall_s".into(), Content::F64(out.curves_wall_s)),
        ("curves_busy_s".into(), Content::F64(out.busy_s)),
    ];
    if let (true, Some(path)) = (tracer.on, args.get("spans-out")) {
        let json = serde_json::to_string(&tracer.to_content()).expect("spans serialize");
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("failed to write spans to {path}: {e}");
            std::process::exit(1);
        }
    }
    Ok(Content::Map(fields))
}

// ---------------------------------------------------------------------------
// Fixed-input layer probes.

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Flows per `generate` call (the paper-default config), and how many
/// times the three-network round is repeated.
const PROBE_FLOWS: usize = 400;
const PROBE_REPS: usize = 3;

/// Mean seconds per `generate` call over the three networks, median over
/// repetitions.
fn generate_probe(args: &Args) -> Content {
    let seed = args.u64("seed", 42);
    transit_obs::set_log_level(transit_obs::Level::Quiet);
    let nets = [Network::EuIsp, Network::Cdn, Network::Internet2];
    let generate_s = median(
        (0..PROBE_REPS)
            .map(|_| {
                let t = Instant::now();
                for net in nets {
                    std::hint::black_box(generate(net, PROBE_FLOWS, seed));
                }
                t.elapsed().as_secs_f64() / nets.len() as f64
            })
            .collect(),
    );
    Content::Map(vec![("generate_s".into(), Content::F64(generate_s))])
}

/// Σ `Store::load` of every object in `--store`, and Σ `Store::save` of
/// the same artifacts into the empty store `--scratch`.
fn store_probe(args: &Args) -> std::io::Result<Content> {
    let (Some(dir), Some(scratch)) = (args.get("store"), args.get("scratch")) else {
        return Err(std::io::Error::other(
            "store needs --store DIR --scratch DIR",
        ));
    };
    transit_obs::set_log_level(transit_obs::Level::Quiet);
    let store = Store::open_existing(Path::new(dir))?;
    let copy = Store::open(Path::new(scratch))?;
    let mut entries: Vec<(Fingerprint, u64)> = Vec::new();
    for entry in std::fs::read_dir(store.objects_dir())? {
        let entry = entry?;
        if let Some(fp) = entry.file_name().to_str().and_then(Fingerprint::from_hex) {
            entries.push((fp, entry.metadata()?.len()));
        }
    }
    entries.sort_by_key(|(fp, _)| fp.0);
    let t = Instant::now();
    let artifacts: Vec<_> = entries.iter().map(|(fp, _)| store.load(*fp)).collect();
    let load_s = t.elapsed().as_secs_f64();
    let mut errors = Vec::new();
    let t = Instant::now();
    for ((fp, _), artifact) in entries.iter().zip(&artifacts) {
        match artifact {
            Some(a) => copy.save(*fp, a)?,
            None => errors.push(format!("store entry {} failed to load", fp.hex())),
        }
    }
    let save_s = t.elapsed().as_secs_f64();
    Ok(Content::Map(vec![
        ("objects".into(), Content::U64(entries.len() as u64)),
        (
            "bytes".into(),
            Content::U64(entries.iter().map(|(_, n)| n).sum()),
        ),
        ("load_s".into(), Content::F64(load_s)),
        ("save_s".into(), Content::F64(save_s)),
        (
            "errors".into(),
            Content::Seq(errors.into_iter().map(Content::Str).collect()),
        ),
    ]))
}

// ---------------------------------------------------------------------------
// One CLI pass.

/// Runs the command after `--` with inherited stdio and reports its wall
/// time, CPU time and peak RSS. A child's `ru_maxrss` starts from its
/// parent's peak when the parent spawns it with vfork semantics, so the
/// CLI is spawned from this small process rather than from `run.py`.
fn exec(args: &Args) -> std::io::Result<Content> {
    let (program, rest) = args
        .command
        .split_first()
        .ok_or_else(|| std::io::Error::other("exec needs a command after --"))?;
    let t = Instant::now();
    let status = std::process::Command::new(program).args(rest).status()?;
    let wall_s = t.elapsed().as_secs_f64();
    let (cpu_s, peak_rss_mb) = rusage(RUSAGE_CHILDREN);
    Ok(Content::Map(vec![
        ("wall_s".into(), Content::F64(wall_s)),
        ("cpu_s".into(), Content::F64(cpu_s)),
        ("peak_rss_mb".into(), Content::F64(peak_rss_mb)),
        (
            "code".into(),
            Content::I64(i64::from(status.code().unwrap_or(-1))),
        ),
    ]))
}

// ---------------------------------------------------------------------------

/// `MODE --key value … [-- CMD…]` command line.
struct Args {
    mode: String,
    values: BTreeMap<String, String>,
    /// Everything after `--`.
    command: Vec<String>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut it = std::env::args().skip(1);
        let mode = it.next().ok_or(
            "usage: perfbench-harness isp|generate|store|exec [--key value]... [-- CMD...]",
        )?;
        let mut values = BTreeMap::new();
        while let Some(key) = it.next() {
            if key == "--" {
                break;
            }
            let key = key
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --key, got {key:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            values.insert(key.to_string(), value);
        }
        Ok(Args {
            mode,
            values,
            command: it.collect(),
        })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.get(key) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("--{key} {v:?} is not a valid value");
                std::process::exit(2);
            }),
        }
    }

    fn u64(&self, key: &str, default: u64) -> u64 {
        self.parsed(key, default)
    }

    fn usize(&self, key: &str, default: usize) -> usize {
        self.parsed(key, default)
    }
}

fn main() {
    let args = Args::parse().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let result = match args.mode.as_str() {
        "isp" => isp(&args).map_err(|e| e.to_string()),
        "generate" => Ok(generate_probe(&args)),
        "store" => store_probe(&args).map_err(|e| e.to_string()),
        "exec" => exec(&args).map_err(|e| e.to_string()),
        other => Err(format!("unknown mode {other:?} (isp|generate|store|exec)")),
    };
    match result {
        Ok(content) => println!(
            "{}",
            serde_json::to_string(&content).expect("result serializes")
        ),
        Err(e) => {
            eprintln!("perfbench-harness {}: {e}", args.mode);
            std::process::exit(1);
        }
    }
}
