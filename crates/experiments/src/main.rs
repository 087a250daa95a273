//! Command-line driver for the experiment harness.

use std::process::ExitCode;

use transit_experiments::runners::is_known;
use transit_experiments::{run_all, ExperimentConfig, ALL_IDS, EXTENSION_IDS, SENSITIVITY_IDS};

fn usage() -> String {
    format!(
        "usage: transit-experiments <experiment|all|full|ext> [--json] [--chart] [--quick] [--flows N] [--seed S] [--threads N] [--out DIR]\n\
         \x20                          [--only ID] [--profile DIR] [--serve-metrics ADDR] [--log-level quiet|info|debug]\n\
         \x20                          [--store DIR] [--resume] [--explain] [--store-gc BYTES]\n\
         \x20  The requested experiments compile into one stage graph; a stage they share runs once.\n\
         \x20  --threads N: thread-pool budget (0 = all cores), the only thread knob; results are identical for every value.\n\
         \x20  --store DIR: content-addressed artifact cache; stages whose fingerprints are present are not recomputed.\n\
         \x20  --resume: require the store to exist (crash recovery); --explain: print the stage plan to stderr.\n\
         \x20  --store-gc BYTES: after the run, evict least-recently-used store entries down to the byte budget.\n\
         experiments: {} {} {}",
        ALL_IDS.join(" "),
        SENSITIVITY_IDS.join(" "),
        EXTENSION_IDS.join(" ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    }
    let mut target: Option<String> = None;
    let mut json = false;
    let mut chart = false;
    let mut out_dir: Option<std::path::PathBuf> = None;
    let mut config = ExperimentConfig::default();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--chart" => chart = true,
            "--quick" => {
                config = ExperimentConfig {
                    n_flows: ExperimentConfig::quick().n_flows,
                    ..config
                }
            }
            "--flows" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.n_flows = n,
                None => {
                    eprintln!("--flows needs a number\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(s) => config.seed = s,
                None => {
                    eprintln!("--seed needs a number\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--threads" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.threads = n,
                None => {
                    eprintln!("--threads needs a number (0 = all cores)\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match it.next() {
                Some(dir) => out_dir = Some(std::path::PathBuf::from(dir)),
                None => {
                    eprintln!("--out needs a directory\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            // --only ID is an explicit spelling of the positional target.
            "--only" => match it.next() {
                Some(id) if target.is_none() => target = Some(id.clone()),
                Some(id) => {
                    eprintln!(
                        "--only {id:?} conflicts with target {:?}\n{}",
                        target.unwrap(),
                        usage()
                    );
                    return ExitCode::FAILURE;
                }
                None => {
                    eprintln!("--only needs an experiment id\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--profile" => match it.next() {
                Some(dir) => config.profile = Some(dir.clone()),
                None => {
                    eprintln!("--profile needs a directory\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--serve-metrics" => match it.next() {
                Some(addr) => config.serve_metrics = Some(addr.clone()),
                None => {
                    eprintln!(
                        "--serve-metrics needs an address (e.g. 127.0.0.1:9464)\n{}",
                        usage()
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--store" => match it.next() {
                Some(dir) => config.store = Some(dir.clone()),
                None => {
                    eprintln!("--store needs a directory\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--resume" => config.resume = true,
            "--explain" => config.explain = true,
            "--store-gc" => match it.next().and_then(|v| v.parse().ok()) {
                Some(bytes) => config.store_gc = Some(bytes),
                None => {
                    eprintln!("--store-gc needs a byte budget\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--log-level" => match it.next().map(|v| v.parse()) {
                Some(Ok(level)) => config.log_level = level,
                _ => {
                    eprintln!("--log-level needs quiet, info, or debug\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            other if target.is_none() => target = Some(other.to_string()),
            other => {
                eprintln!("unexpected argument {other:?}\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(target) = target else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    transit_obs::set_log_level(config.log_level);
    if let Some(profile_dir) = &config.profile {
        if let Err(e) = transit_obs::journal::enable(std::path::Path::new(profile_dir)) {
            eprintln!("failed to open event journal under {profile_dir}: {e}");
            return ExitCode::FAILURE;
        }
    }
    // Bound to a guard: dropping it (end of main) shuts the server down.
    let _metrics_server = match &config.serve_metrics {
        Some(addr) => match transit_obs::serve_metrics(addr) {
            Ok(server) => {
                eprintln!(
                    "serving /metrics /spans /healthz on http://{}",
                    server.addr()
                );
                Some(server)
            }
            Err(e) => {
                eprintln!("failed to bind --serve-metrics {addr}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let ids: Vec<&str> = match target.as_str() {
        "all" => ALL_IDS.to_vec(),
        "full" => ALL_IDS
            .iter()
            .chain(SENSITIVITY_IDS.iter())
            .chain(EXTENSION_IDS.iter())
            .copied()
            .collect(),
        "ext" => EXTENSION_IDS.to_vec(),
        id => vec![id],
    };

    if config.resume && config.store.is_none() {
        eprintln!("--resume requires --store DIR\n{}", usage());
        return ExitCode::FAILURE;
    }

    if let Some(id) = ids.iter().find(|id| !is_known(id)) {
        eprintln!("unknown experiment {id:?}\n{}", usage());
        return ExitCode::FAILURE;
    }

    let results = match run_all(&ids, &config) {
        Ok(results) => results,
        Err(e) => {
            eprintln!("{target} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut profiled_runs: Vec<transit_experiments::profile::RunRecord> = Vec::new();
    for (id, result) in ids.iter().zip(results) {
        let result = match result {
            Ok(result) => result,
            Err(e) => {
                eprintln!("experiment {id} failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Some(dir) = &out_dir {
            if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| {
                std::fs::write(dir.join(format!("{id}.json")), result.to_json())?;
                std::fs::write(dir.join(format!("{id}.txt")), result.render_text())
            }) {
                eprintln!("failed to write {id} output: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {}/{id}.json and .txt", dir.display());
        } else if json {
            println!("{}", result.to_json());
        } else {
            println!("{}", result.render_text());
            if chart {
                for f in &result.figures {
                    println!(
                        "{}",
                        transit_experiments::output::render_ascii_chart(f, 60, 14)
                    );
                }
            }
        }
        if config.profile.is_some() {
            profiled_runs.push(transit_experiments::profile::RunRecord {
                id: id.to_string(),
                stages: result.stage_reports,
            });
        }
    }
    if let Some(profile_dir) = &config.profile {
        let dir = std::path::Path::new(profile_dir);
        match transit_experiments::profile::write_profile(dir, &config, &profiled_runs) {
            Ok(path) => println!(
                "wrote profile sidecars to {}",
                path.parent().unwrap().display()
            ),
            Err(e) => {
                eprintln!("failed to write profile sidecars: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    // LRU-evict the store down to the byte budget after everything ran.
    if let (Some(dir), Some(budget)) = (&config.store, config.store_gc) {
        match transit_stage::Store::open_existing(std::path::Path::new(dir))
            .and_then(|store| store.gc(budget))
        {
            Ok(stats) => eprintln!(
                "store gc: evicted {} entr{} ({} bytes), {} bytes retained",
                stats.evicted_files,
                if stats.evicted_files == 1 { "y" } else { "ies" },
                stats.evicted_bytes,
                stats.kept_bytes
            ),
            Err(e) => {
                eprintln!("store gc failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
