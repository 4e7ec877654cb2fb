//! CLI entry point that regenerates every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p banshee_bench --bin experiments -- all
//! cargo run --release -p banshee_bench --bin experiments -- fig4 fig5 --quick --jobs 8
//! ```
//!
//! Flags: `--quick` (smaller runs), `--smoke` (tiny sanity runs),
//! `--jobs N` (worker threads; default: available parallelism),
//! `--no-store` (disable the persistent result store), `--no-snapshot`
//! (disable warmed-state snapshot capture/resume; also honoured as the
//! `BANSHEE_NO_SNAPSHOT=1` environment variable), `--telemetry DIR`,
//! `--telemetry-interval N`, `--help`.
//! Output: tables on stdout + JSON under `target/experiments/`, cell cache
//! under `target/experiments/store/` (a re-run resumes from it), and a
//! `run_summary.json` with per-experiment wall-clock times and scale
//! metadata.

use banshee_bench::experiments::{self, run_main_matrix, scale_from_flags, EXPERIMENT_NAMES};
use banshee_bench::runner::{CellRecord, Runner};
use banshee_bench::table::{output_dir, write_json, Table};
use banshee_common::telemetry::{
    CellProfile, ProfileBreakdown, ProfileComponent, ProfileEntry, TelemetryConfig,
};
use banshee_exec::JobPool;
use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;

/// Wall-clock time of one experiment block within a run.
#[derive(Debug, Clone, Serialize)]
struct ExperimentTiming {
    name: String,
    seconds: f64,
}

/// Per-cell wall-clock row in `run_summary.json`.
#[derive(Debug, Clone, Serialize)]
struct CellTiming {
    workload: String,
    design: String,
    from_store: bool,
    resumed_warm: bool,
    seconds: f64,
    sim_seconds: f64,
    instructions: u64,
    instr_per_sec: f64,
}

impl From<&CellRecord> for CellTiming {
    fn from(r: &CellRecord) -> Self {
        CellTiming {
            workload: r.workload.clone(),
            design: r.design.clone(),
            from_store: r.from_store,
            resumed_warm: r.resumed_warm,
            seconds: r.seconds,
            sim_seconds: r.sim_seconds,
            instructions: r.instructions,
            instr_per_sec: r.instr_per_sec,
        }
    }
}

/// Metadata written to `target/experiments/run_summary.json` so per-PR
/// trajectories (runtimes, cache behaviour) can be tracked.
#[derive(Debug, Clone, Serialize)]
struct RunSummary {
    scale: String,
    instructions_per_run: u64,
    cores: usize,
    jobs: usize,
    store_enabled: bool,
    snapshots_enabled: bool,
    telemetry_enabled: bool,
    started_unix_secs: u64,
    total_seconds: f64,
    cells_simulated: usize,
    cells_from_store: usize,
    cells_resumed_warm: usize,
    cells_cold: usize,
    simulation_seconds: f64,
    sim_only_seconds: f64,
    experiments: Vec<ExperimentTiming>,
    cells: Vec<CellTiming>,
    self_profile: Option<ProfileBreakdown>,
}

/// Sum the per-cell self-profiles into one run-wide breakdown (None when
/// no cell deposited a profile, i.e. telemetry was off).
fn aggregate_profile(cells: &[CellProfile]) -> Option<ProfileBreakdown> {
    if cells.is_empty() {
        return None;
    }
    let mut seconds = vec![0.0f64; ProfileComponent::ALL.len()];
    let mut calls = vec![0u64; ProfileComponent::ALL.len()];
    for cell in cells {
        for entry in &cell.profile.entries {
            if let Some(i) = ProfileComponent::ALL
                .iter()
                .position(|c| c.label() == entry.component)
            {
                seconds[i] += entry.seconds;
                calls[i] += entry.calls;
            }
        }
    }
    let total: f64 = seconds.iter().sum();
    let entries = ProfileComponent::ALL
        .iter()
        .enumerate()
        .filter(|&(i, _)| calls[i] > 0)
        .map(|(i, c)| ProfileEntry {
            component: c.label().to_string(),
            seconds: seconds[i],
            share: if total > 0.0 { seconds[i] / total } else { 0.0 },
            calls: calls[i],
        })
        .collect();
    Some(ProfileBreakdown {
        entries,
        total_seconds: total,
    })
}

fn print_all(tables: Vec<Table>) {
    for t in tables {
        t.print();
    }
}

fn print_usage() {
    println!(
        "usage: experiments [EXPERIMENT ...] [--quick | --smoke] [--jobs N] \
         [--no-store] [--no-snapshot] [--telemetry DIR] [--telemetry-interval N]"
    );
    println!(
        "       experiments scenario FILE... [--quick | --smoke] [--jobs N] \
         [--no-store] [--no-snapshot] [--telemetry DIR] [--telemetry-interval N]"
    );
    println!();
    println!("Regenerates the paper's tables and figures. With no experiment");
    println!("names, runs everything (`all`).");
    println!();
    println!("experiments: {}", EXPERIMENT_NAMES.join(", "));
    println!();
    println!("subcommands:");
    println!("  scenario FILE...  run data-driven scenario files (JSON workload +");
    println!("                    sweep descriptions; see examples/scenarios/ and");
    println!("                    the scenario section of EXPERIMENTS.md). Output");
    println!("                    goes to target/experiments/scenario_<name>.json");
    println!();
    println!("flags:");
    println!("  --quick     smaller runs (faster, lower fidelity)");
    println!("  --smoke     tiny sanity runs (seconds, shapes only)");
    println!("  --jobs N    run N simulations in parallel (default: available");
    println!("              parallelism; results are identical at any N)");
    println!("  --no-store  disable the persistent result store (by default,");
    println!("              finished cells are cached under");
    println!("              target/experiments/store/ and re-runs resume)");
    println!("  --no-snapshot  disable warmed-state snapshots (by default, each");
    println!("              cell's post-warm-up machine state is cached beside the");
    println!("              results and runs differing only in measured length");
    println!("              resume from it; BANSHEE_NO_SNAPSHOT=1 does the same)");
    println!("  --telemetry DIR  record time-resolved telemetry for every");
    println!("              simulated cell: epoch-sampled time series (JSON + CSV),");
    println!("              a Chrome-traceable event trace, and a self-profile in");
    println!("              run_summary.json. Files land under DIR. Store hits are");
    println!("              re-simulated so each cell emits its series; results are");
    println!("              byte-identical with telemetry on or off.");
    println!("              (BANSHEE_TELEMETRY=DIR does the same)");
    println!("  --telemetry-interval N  sample every N instructions (default");
    println!("              100000; BANSHEE_TELEMETRY_INTERVAL=N does the same)");
    println!("  --help      print this message and exit");
    println!();
    println!("Tables are printed to stdout; raw numbers are written as JSON");
    println!("under target/experiments/, and run_summary.json records scale,");
    println!("wall-clock, cache and per-cell timing metadata for the run.");
}

/// Parsed command line (plus the environment variables that alias flags).
#[derive(Debug, Clone, Default)]
struct CliArgs {
    selected: Vec<String>,
    quick: bool,
    smoke: bool,
    jobs: usize,
    no_store: bool,
    no_snapshot: bool,
    telemetry_dir: Option<PathBuf>,
    telemetry_interval: Option<u64>,
}

fn parse_args(args: &[String]) -> Result<CliArgs, String> {
    let mut cli = CliArgs {
        no_snapshot: std::env::var("BANSHEE_NO_SNAPSHOT").is_ok_and(|v| v == "1"),
        telemetry_dir: std::env::var("BANSHEE_TELEMETRY")
            .ok()
            .filter(|v| !v.is_empty())
            .map(PathBuf::from),
        ..CliArgs::default()
    };
    if let Ok(value) = std::env::var("BANSHEE_TELEMETRY_INTERVAL") {
        cli.telemetry_interval = Some(
            value
                .parse()
                .map_err(|_| format!("invalid BANSHEE_TELEMETRY_INTERVAL value '{value}'"))?,
        );
    }
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        if arg == "--quick" {
            cli.quick = true;
        } else if arg == "--smoke" {
            cli.smoke = true;
        } else if arg == "--no-store" {
            cli.no_store = true;
        } else if arg == "--no-snapshot" {
            cli.no_snapshot = true;
        } else if arg == "--jobs" {
            i += 1;
            let value = args
                .get(i)
                .ok_or_else(|| "--jobs requires a value".to_string())?;
            cli.jobs = value
                .parse()
                .map_err(|_| format!("invalid --jobs value '{value}'"))?;
        } else if let Some(value) = arg.strip_prefix("--jobs=") {
            cli.jobs = value
                .parse()
                .map_err(|_| format!("invalid --jobs value '{value}'"))?;
        } else if arg == "--telemetry" {
            i += 1;
            let value = args
                .get(i)
                .ok_or_else(|| "--telemetry requires a directory".to_string())?;
            cli.telemetry_dir = Some(PathBuf::from(value));
        } else if let Some(value) = arg.strip_prefix("--telemetry=") {
            cli.telemetry_dir = Some(PathBuf::from(value));
        } else if arg == "--telemetry-interval" {
            i += 1;
            let value = args
                .get(i)
                .ok_or_else(|| "--telemetry-interval requires a value".to_string())?;
            cli.telemetry_interval = Some(
                value
                    .parse()
                    .map_err(|_| format!("invalid --telemetry-interval value '{value}'"))?,
            );
        } else if let Some(value) = arg.strip_prefix("--telemetry-interval=") {
            cli.telemetry_interval = Some(
                value
                    .parse()
                    .map_err(|_| format!("invalid --telemetry-interval value '{value}'"))?,
            );
        } else if arg.starts_with('-') {
            return Err(format!(
                "unknown flag '{arg}'; valid flags: --quick, --smoke, --jobs N, --no-store, \
                 --no-snapshot, --telemetry DIR, --telemetry-interval N, --help"
            ));
        } else {
            cli.selected.push(arg.clone());
        }
        i += 1;
    }
    if cli.telemetry_interval == Some(0) {
        return Err("--telemetry-interval must be at least 1".to_string());
    }
    Ok(cli)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage();
        return;
    }
    let cli = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    let CliArgs {
        mut selected,
        quick,
        smoke,
        jobs,
        no_store,
        no_snapshot,
        telemetry_dir,
        telemetry_interval,
    } = cli;
    if selected.is_empty() {
        selected.push("all".to_string());
    }
    // `scenario FILE...` consumes every following positional argument.
    let scenario_files: Vec<String> = if selected[0] == "scenario" {
        let files = selected.split_off(1);
        if files.is_empty() {
            eprintln!(
                "`scenario` requires at least one scenario file \
                 (see examples/scenarios/)"
            );
            std::process::exit(2);
        }
        files
    } else {
        for name in &selected {
            if !EXPERIMENT_NAMES.contains(&name.as_str()) {
                eprintln!(
                    "unknown experiment '{name}'; valid names: {} \
                     (or `scenario FILE...` for data-driven scenario files)",
                    EXPERIMENT_NAMES.join(", ")
                );
                std::process::exit(2);
            }
        }
        Vec::new()
    };
    let scenario_mode = !scenario_files.is_empty();
    let all = !scenario_mode && selected.iter().any(|s| s == "all");
    let want = |name: &str| all || selected.iter().any(|s| s == name);

    let scale = scale_from_flags(quick, smoke);
    let effective_jobs = if jobs == 0 {
        JobPool::available_workers()
    } else {
        jobs
    };
    let mut runner = Runner::new(scale)
        .with_jobs(jobs)
        .with_progress(true)
        .with_snapshots(!no_snapshot);
    if !no_store {
        runner = runner.with_store(output_dir().join("store"));
    }
    if let Some(dir) = &telemetry_dir {
        let mut tel_config = TelemetryConfig::default();
        if let Some(interval) = telemetry_interval {
            tel_config.interval_instructions = interval;
        }
        runner = runner.with_telemetry(dir, tel_config);
        eprintln!(
            "telemetry on: sampling every {} instructions, files under {}",
            tel_config.interval_instructions,
            dir.display()
        );
    }
    eprintln!(
        "running {} at {:?} scale ({} instructions per run, {} cores) with {} worker{}{}",
        if scenario_mode {
            format!("scenario {}", scenario_files.join(", "))
        } else {
            selected.join(", ")
        },
        scale,
        scale.instructions(),
        scale.cores(),
        effective_jobs,
        if effective_jobs == 1 { "" } else { "s" },
        if no_store {
            ", result store disabled".to_string()
        } else {
            format!(", result store at {}", output_dir().join("store").display())
        }
    );

    let started = Instant::now();
    let started_unix_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut timings: Vec<ExperimentTiming> = Vec::new();
    let timed = |timings: &mut Vec<ExperimentTiming>, name: &str, run: &mut dyn FnMut()| {
        let t0 = Instant::now();
        run();
        let seconds = t0.elapsed().as_secs_f64();
        eprintln!("[{name}] finished in {seconds:.2}s");
        timings.push(ExperimentTiming {
            name: name.to_string(),
            seconds,
        });
    };

    if scenario_mode {
        // Parse and validate every file (including design names) before
        // running any: an error in the third file should not cost two
        // long runs first.
        let mut specs: Vec<banshee_workloads::ScenarioSpec> = Vec::new();
        for file in &scenario_files {
            match banshee_workloads::ScenarioSpec::from_file(file) {
                Ok(spec) => {
                    if let Err(message) = experiments::scenario::resolve_designs(&spec) {
                        eprintln!("{message}");
                        std::process::exit(2);
                    }
                    if let Some(previous) = specs.iter().position(|s| s.name == spec.name) {
                        eprintln!(
                            "{file}: scenario name `{}` is already used by {}; names must \
                             be unique across one invocation (they name the output JSON)",
                            spec.name, scenario_files[previous]
                        );
                        std::process::exit(2);
                    }
                    specs.push(spec);
                }
                Err(error) => {
                    eprintln!("{error}");
                    std::process::exit(2);
                }
            }
        }
        for spec in &specs {
            eprintln!(
                "[scenario] {} ({} workloads x {} designs, {} cells/design) ...",
                spec.name,
                spec.workloads.len(),
                if spec.designs.is_empty() {
                    "default".to_string()
                } else {
                    spec.designs.len().to_string()
                },
                spec.cells_per_design(),
            );
            let mut failure = None;
            timed(
                &mut timings,
                &format!("scenario_{}", spec.name),
                &mut || match experiments::scenario::run_and_report(&runner, spec) {
                    Ok(tables) => print_all(tables),
                    Err(message) => failure = Some(message),
                },
            );
            if let Some(message) = failure {
                eprintln!("scenario `{}` failed: {message}", spec.name);
                std::process::exit(1);
            }
        }
    }

    // Figures 4/5/6 share one designs × workloads matrix.
    if want("fig4") || want("fig5") || want("fig6") {
        eprintln!("[matrix] running the Figure 4/5/6 design x workload matrix ...");
        timed(&mut timings, "fig4_5_6", &mut || {
            let matrix = run_main_matrix(&runner);
            if want("fig4") {
                print_all(experiments::fig4::report(&matrix));
            }
            if want("fig5") {
                print_all(experiments::fig5::report(&matrix));
            }
            if want("fig6") {
                print_all(experiments::fig6::report(&matrix));
            }
        });
    }
    if want("fig7") {
        eprintln!("[fig7] replacement-policy ablation ...");
        timed(&mut timings, "fig7", &mut || {
            print_all(experiments::fig7::report(
                &runner,
                &experiments::full_suite(),
            ));
        });
    }
    if want("fig8") {
        eprintln!("[fig8] latency/bandwidth sweep ...");
        timed(&mut timings, "fig8", &mut || {
            print_all(experiments::fig8::report(
                &runner,
                &experiments::sweep_suite(),
            ));
        });
    }
    if want("fig9") {
        eprintln!("[fig9] sampling-coefficient sweep ...");
        timed(&mut timings, "fig9", &mut || {
            print_all(experiments::fig9::report(
                &runner,
                &experiments::sweep_suite(),
            ));
        });
    }
    if want("table1") {
        eprintln!("[table1] per-access behaviour ...");
        timed(&mut timings, "table1", &mut || {
            print_all(experiments::table1::report());
        });
    }
    if want("table5") {
        eprintln!("[table5] page-table update overhead ...");
        timed(&mut timings, "table5", &mut || {
            print_all(experiments::table5::report(
                &runner,
                &experiments::sweep_suite(),
            ));
        });
    }
    if want("table6") {
        eprintln!("[table6] associativity sweep ...");
        timed(&mut timings, "table6", &mut || {
            print_all(experiments::table6::report(
                &runner,
                &experiments::sweep_suite(),
            ));
        });
    }
    if want("large_pages") {
        eprintln!("[large_pages] 2 MiB pages on graph workloads ...");
        timed(&mut timings, "large_pages", &mut || {
            print_all(experiments::large_pages::report(
                &runner,
                &banshee_workloads::WorkloadKind::graph_suite(),
            ));
        });
    }
    if want("batman") {
        eprintln!("[batman] bandwidth balancing ...");
        timed(&mut timings, "batman", &mut || {
            print_all(experiments::batman::report(
                &runner,
                &experiments::sweep_suite(),
            ));
        });
    }

    let summary = RunSummary {
        scale: scale.name().to_string(),
        instructions_per_run: scale.instructions(),
        cores: scale.cores(),
        jobs: effective_jobs,
        store_enabled: !no_store,
        snapshots_enabled: !no_snapshot && !no_store,
        telemetry_enabled: telemetry_dir.is_some(),
        started_unix_secs,
        total_seconds: started.elapsed().as_secs_f64(),
        cells_simulated: runner.counters.simulated(),
        cells_from_store: runner.counters.from_store(),
        cells_resumed_warm: runner.counters.resumed_warm(),
        cells_cold: runner.counters.cold(),
        simulation_seconds: runner.counters.simulated_time().as_secs_f64(),
        sim_only_seconds: runner.counters.sim_only_time().as_secs_f64(),
        experiments: timings,
        cells: runner
            .counters
            .cell_records()
            .iter()
            .map(CellTiming::from)
            .collect(),
        self_profile: aggregate_profile(&runner.counters.cell_profiles()),
    };
    if let Err(err) = write_json("run_summary", &summary) {
        eprintln!("warning: failed to write run_summary.json ({err})");
    }
    eprintln!(
        "done in {:.2}s ({} cells simulated, {} warm-resumed, {} from store); JSON written \
         under {}",
        summary.total_seconds,
        summary.cells_simulated,
        summary.cells_resumed_warm,
        summary.cells_from_store,
        output_dir().display()
    );
}
