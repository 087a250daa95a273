//! Time-budgeted differential fuzz smoke test.
//!
//! ```text
//! fuzz_smoke [--corpus DIR] [--scenarios N] [--budget-secs N]
//!            [--seeds A,B,C] [--emit-corpus DIR] [--log-level LEVEL]
//!            [--profile DIR]
//! ```
//!
//! Two phases, both gating:
//!
//! 1. **Corpus replay** — every committed case in `--corpus` (default
//!    `tests/corpus`) must parse and pass its oracle. A case that skips
//!    counts as failure: regression cases exist to assert something.
//! 2. **Fuzz** — `--scenarios` fresh scenarios (default 500) drawn
//!    round-robin across the four oracle families from the fixed seed
//!    set, within `--budget-secs` (default 60). Any divergence is
//!    greedily shrunk, written to `target/fuzz_failures/`, and fails the
//!    run; so does exhausting the budget early.
//!
//! `--emit-corpus DIR` instead regenerates the curated corpus set into
//! `DIR` (verifying each case passes) and exits.
//!
//! `--profile DIR` gives fuzz runs the same observability sidecars as
//! sweeps: the event journal streams to `DIR/events.jsonl` while the
//! run executes, and on exit (pass or fail) the run manifest,
//! `metrics.prom` (with the `testkit.*` scenario/verdict counters), and
//! the Chrome-trace `trace.json` are written to `DIR`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use transit_obs::{set_log_level, span, Level};
use transit_testkit::{
    load_dir, run_fuzz, to_json, CorpusCase, DemandSpec, Fault, FuzzConfig, IngestScenario,
    MarketSpec, Scenario, TestkitRng, Verdict,
};

struct Args {
    corpus: PathBuf,
    scenarios: usize,
    budget_secs: u64,
    seeds: Vec<u64>,
    emit_corpus: Option<PathBuf>,
    log_level: Level,
    profile: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        corpus: PathBuf::from("tests/corpus"),
        scenarios: 500,
        budget_secs: 60,
        seeds: vec![42, 1337, 2011],
        emit_corpus: None,
        log_level: Level::Info,
        profile: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--corpus" => args.corpus = PathBuf::from(value("--corpus")?),
            "--scenarios" => {
                args.scenarios = value("--scenarios")?
                    .parse()
                    .map_err(|e| format!("--scenarios: {e}"))?;
            }
            "--budget-secs" => {
                args.budget_secs = value("--budget-secs")?
                    .parse()
                    .map_err(|e| format!("--budget-secs: {e}"))?;
            }
            "--seeds" => {
                args.seeds = value("--seeds")?
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|e| format!("--seeds: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--emit-corpus" => args.emit_corpus = Some(PathBuf::from(value("--emit-corpus")?)),
            "--profile" => args.profile = Some(PathBuf::from(value("--profile")?)),
            "--log-level" => {
                args.log_level = match value("--log-level")?.as_str() {
                    "quiet" => Level::Quiet,
                    "info" => Level::Info,
                    "debug" => Level::Debug,
                    other => return Err(format!("unknown log level {other}")),
                };
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.seeds.is_empty() {
        return Err("--seeds needs at least one seed".into());
    }
    Ok(args)
}

/// The curated regression corpus: representative scenarios pinning each
/// oracle family, including the fault/overflow cases the ISSUE calls
/// out. Regenerable at any time with `--emit-corpus tests/corpus`.
fn curated_corpus() -> Vec<CorpusCase> {
    let base_market = |demand, alpha, flows: &[(f64, f64)]| MarketSpec {
        demand,
        alpha,
        max_bundles: 4,
        flows: flows.to_vec(),
    };
    let mut cases = vec![
        CorpusCase {
            name: "coalesce-eps0-replicated-ced".into(),
            note: "ε=0 coalescing of 3× replicated CED flows must evaluate profits and \
                   prices per group, bitwise equal to the raw market on the expanded bundling"
                .into(),
            scenario: Scenario::Coalesce {
                market: base_market(
                    DemandSpec::Ced,
                    1.2,
                    &[(12.5, 310.0), (240.0, 95.0), (3.75, 2800.0)],
                ),
                epsilon: 0.0,
                replication: 3,
                jitter: 0.0,
            },
        },
        CorpusCase {
            name: "coalesce-eps-bound-ced".into(),
            note: "ε=0.5 quantized CED market: group-respecting optimum must stay within \
                   2·d_exact ≤ 2·d_eps(ε) of the exhaustive raw optimum"
                .into(),
            scenario: Scenario::Coalesce {
                market: base_market(
                    DemandSpec::Ced,
                    1.3,
                    &[(40.0, 500.0), (41.0, 505.0), (200.0, 1200.0), (5.0, 60.0)],
                ),
                epsilon: 0.5,
                replication: 2,
                jitter: 0.1,
            },
        },
        CorpusCase {
            name: "coalesce-logit-delegation".into(),
            note: "lossy ε=0.25 coalescing of a logit market still evaluates every \
                   bundling bitwise equal to the raw market"
                .into(),
            scenario: Scenario::Coalesce {
                market: base_market(
                    DemandSpec::Logit,
                    1.1,
                    &[(30.0, 400.0), (30.2, 401.0), (90.0, 1500.0)],
                ),
                epsilon: 0.25,
                replication: 2,
                jitter: 0.05,
            },
        },
        CorpusCase {
            name: "series-ced-all-strategies".into(),
            note: "one-pass bundle_series must equal the per-point loop for every \
                   strategy on a CED market"
                .into(),
            scenario: Scenario::Series {
                market: MarketSpec {
                    max_bundles: 6,
                    ..base_market(
                        DemandSpec::Ced,
                        1.25,
                        &[
                            (1.5, 2200.0),
                            (88.0, 140.0),
                            (420.0, 900.0),
                            (17.0, 17.0),
                            (64.0, 3100.0),
                            (250.0, 480.0),
                        ],
                    )
                },
            },
        },
        CorpusCase {
            name: "series-logit-all-strategies".into(),
            note: "one-pass bundle_series must equal the per-point loop for every \
                   strategy on a logit market"
                .into(),
            scenario: Scenario::Series {
                market: MarketSpec {
                    max_bundles: 5,
                    ..base_market(
                        DemandSpec::Logit,
                        1.1,
                        &[(22.0, 600.0), (140.0, 220.0), (8.0, 1800.0), (310.0, 750.0)],
                    )
                },
            },
        },
        CorpusCase {
            name: "ingest-seq-overflow-drop".into(),
            note: "u32 sequence wraparound mid-stream plus a dropped datagram: loss \
                   accounting must match the serial reference at shards {1,4,16}"
                .into(),
            scenario: Scenario::Ingest(IngestScenario {
                n_flows: 12,
                n_routers: 2,
                sampling_rate: 1,
                packets_per_flow: 20,
                packet_bytes: 900,
                seq_base: u32::MAX - 3,
                faults: vec![Fault::Drop { index: 5 }],
            }),
        },
        CorpusCase {
            name: "ingest-fault-soup".into(),
            note: "truncation, corruption, duplication, and reordering together: \
                   CollectorStats accounting must stay shard-count-invariant"
                .into(),
            scenario: Scenario::Ingest(IngestScenario {
                n_flows: 45,
                n_routers: 3,
                sampling_rate: 10,
                packets_per_flow: 33,
                packet_bytes: 1400,
                seq_base: 7_000_000,
                faults: vec![
                    Fault::Truncate { index: 2, keep: 17 },
                    Fault::Corrupt {
                        index: 4,
                        offset: 1,
                        xor: 0x40,
                    },
                    Fault::Duplicate { index: 0 },
                    Fault::Swap { a: 1, b: 6 },
                ],
            }),
        },
    ];

    // Deterministic mid-size DP instance, plus one wide enough that the
    // DP rows genuinely split into parallel column tiles.
    let mut rng = TestkitRng::new(0x7E57_C0DE);
    let dp_flows = |rng: &mut TestkitRng, n: usize| -> Vec<(f64, f64)> {
        (0..n)
            .map(|_| (rng.range_f64(0.1, 500.0), rng.range_f64(0.5, 4000.0)))
            .collect()
    };
    cases.push(CorpusCase {
        name: "tiled-dp-small".into(),
        note: "serial-fallback DP rows: dp_threads {2,8} must match dp_threads 1 \
               assignment-for-assignment"
            .into(),
        scenario: Scenario::TiledDp {
            flows: dp_flows(&mut rng, 36),
            max_bundles: 7,
        },
    });
    cases.push(CorpusCase {
        name: "tiled-dp-wide".into(),
        note: "536 flows exceed the parallel column threshold, so rows split into \
               real tiles; the tiled build must stay bitwise-identical to serial"
            .into(),
        scenario: Scenario::TiledDp {
            flows: dp_flows(&mut rng, 536),
            max_bundles: 5,
        },
    });
    cases
}

fn emit_corpus(dir: &Path) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("fuzz_smoke: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let cases = curated_corpus();
    for case in &cases {
        match transit_testkit::check(&case.scenario) {
            Ok(Verdict::Pass) => {}
            Ok(Verdict::Skip(why)) => {
                eprintln!(
                    "fuzz_smoke: curated case {} skips ({why}); refusing to emit",
                    case.name
                );
                return ExitCode::FAILURE;
            }
            Err(d) => {
                eprintln!("fuzz_smoke: curated case {} diverges: {d}", case.name);
                return ExitCode::FAILURE;
            }
        }
        let path = dir.join(format!("{}.json", case.name));
        if let Err(e) = std::fs::write(&path, to_json(case) + "\n") {
            eprintln!("fuzz_smoke: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("emitted {}", path.display());
    }
    println!(
        "fuzz_smoke: emitted {} corpus cases to {}",
        cases.len(),
        dir.display()
    );
    ExitCode::SUCCESS
}

fn replay_corpus(dir: &Path) -> Result<usize, String> {
    let entries = load_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    if entries.is_empty() {
        return Err(format!("corpus {} has no cases", dir.display()));
    }
    let mut replayed = 0;
    for (path, parsed) in entries {
        let case = parsed.map_err(|e| format!("{}: {e}", path.display()))?;
        match transit_testkit::check(&case.scenario) {
            Ok(Verdict::Pass) => replayed += 1,
            Ok(Verdict::Skip(why)) => {
                return Err(format!(
                    "{}: corpus case skipped its oracle ({why}) — it asserts nothing",
                    path.display()
                ));
            }
            Err(d) => {
                return Err(format!("{}: corpus case diverged: {d}", path.display()));
            }
        }
    }
    Ok(replayed)
}

/// Writes the observability sidecars for a `--profile DIR` fuzz run:
/// the run manifest (fuzz config + `testkit.*` counters), metrics.prom,
/// and the finalized journal's trace.json.
fn write_profile_sidecars(dir: &Path, args: &Args) -> std::io::Result<()> {
    let config = serde::Content::Map(vec![
        (
            "corpus".to_string(),
            serde::Content::Str(args.corpus.display().to_string()),
        ),
        (
            "scenarios".to_string(),
            serde::Content::U64(args.scenarios as u64),
        ),
        (
            "budget_secs".to_string(),
            serde::Content::U64(args.budget_secs),
        ),
        (
            "seeds".to_string(),
            serde::Content::Seq(args.seeds.iter().map(|&s| serde::Content::U64(s)).collect()),
        ),
    ]);
    let manifest =
        transit_obs::RunManifest::capture(config, args.seeds[0], 1, vec!["fuzz_smoke".to_string()]);
    manifest.write_to(dir)?;
    transit_obs::trace::finalize_journal()?;
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fuzz_smoke: {e}");
            return ExitCode::FAILURE;
        }
    };
    set_log_level(args.log_level);

    if let Some(dir) = &args.emit_corpus {
        return emit_corpus(dir);
    }

    if let Some(dir) = &args.profile {
        if let Err(e) = transit_obs::journal::enable(dir) {
            eprintln!(
                "fuzz_smoke: cannot open event journal under {}: {e}",
                dir.display()
            );
            return ExitCode::FAILURE;
        }
    }
    let code = run_phases(&args);
    // Sidecars are written on every exit path — a diverging fuzz run is
    // exactly when the timeline and counters are worth keeping.
    if let Some(dir) = &args.profile {
        match write_profile_sidecars(dir, &args) {
            Ok(()) => println!("wrote profile sidecars to {}", dir.display()),
            Err(e) => {
                eprintln!("fuzz_smoke: cannot write profile sidecars: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    code
}

fn run_phases(args: &Args) -> ExitCode {
    let _root = span!("fuzz_smoke");

    // Phase 1: corpus replay.
    transit_obs::journal::phase("corpus_replay");
    let replayed = {
        let _span = span!("fuzz_smoke.corpus_replay");
        match replay_corpus(&args.corpus) {
            Ok(n) => {
                println!("corpus replay: {n} cases green ({})", args.corpus.display());
                n
            }
            Err(e) => {
                eprintln!("fuzz_smoke: corpus replay FAILED: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    // Phase 2: budgeted fuzz.
    transit_obs::journal::phase("fuzz");
    let seed_list = args
        .seeds
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "fuzzing {} scenarios (seeds {seed_list}, budget {}s)",
        args.scenarios, args.budget_secs
    );
    let outcome = {
        let _span = span!("fuzz_smoke.fuzz", seeds = seed_list);
        run_fuzz(&FuzzConfig {
            seeds: args.seeds.clone(),
            scenarios: args.scenarios,
            budget: Duration::from_secs(args.budget_secs),
        })
    };
    println!("fuzz: {}", outcome.summary());

    if let Some(failure) = &outcome.failure {
        let minimized = CorpusCase {
            name: format!("fuzz-{}-{}", failure.family.name(), failure.seed),
            note: format!(
                "found by fuzz_smoke at index {} (regenerate: Scenario::generate({:?}, {})); \
                 shrunk {} steps / {} evaluations; divergence: {}",
                failure.index,
                failure.family,
                failure.seed,
                failure.report.steps,
                failure.report.evaluations,
                failure.report.divergence
            ),
            scenario: failure.report.scenario.clone(),
        };
        let json = to_json(&minimized);
        eprintln!("fuzz_smoke: DIVERGENCE: {}", failure.report.divergence);
        eprintln!("{json}");
        let out_dir = PathBuf::from("target/fuzz_failures");
        if std::fs::create_dir_all(&out_dir).is_ok() {
            let path = out_dir.join(format!("{}.json", minimized.name));
            if std::fs::write(&path, json + "\n").is_ok() {
                eprintln!(
                    "fuzz_smoke: minimized case written to {} — move it into tests/corpus/ \
                     to commit as a regression case",
                    path.display()
                );
            }
        }
        return ExitCode::FAILURE;
    }
    if outcome.budget_exhausted {
        eprintln!(
            "fuzz_smoke: budget exhausted after {} of {} scenarios",
            outcome.scenarios_run, args.scenarios
        );
        return ExitCode::FAILURE;
    }
    println!(
        "fuzz_smoke OK: {} corpus cases + {} scenarios, zero divergences",
        replayed, outcome.scenarios_run
    );
    ExitCode::SUCCESS
}
