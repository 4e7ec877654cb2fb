//! `layerbench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]
//! [--scale quick|smoke]`
//!
//! `--seconds` defaults to [`QUICK_SECONDS`] at quick scale (the default)
//! and to 0 at smoke scale.
//!
//! Prints a self-describing header, one line per metric, and as its last
//! line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. See the library docs for the workloads and metrics.

use banshee_bench::{ExperimentScale, Runner, RunnerCounters};
use banshee_common::TelemetryConfig;
use banshee_layerbench::cells::{run_pass, CellRun, Pass};
use banshee_layerbench::metrics::{end_to_end, per_layer, result_line, Metric, TraceInputs};
use banshee_layerbench::traced::{trace_cell, SAMPLE_SHIFT};
use banshee_layerbench::workload::{
    cell_config, lineup, BenchWorkload, Budget, DEFAULT_SEED, QUICK_SECONDS,
};
use banshee_layerbench::{host, DramCacheDesign};
use banshee_sim::SimConfig;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct Args {
    workload: BenchWorkload,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: ExperimentScale,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = None;
    let mut trace = false;
    let mut scale = ExperimentScale::Quick;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} value {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(BenchWorkload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = BenchWorkload::ALL.iter().map(|w| w.name()).collect();
                    bad(&names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad("whole seconds"))?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--scale" => {
                scale = match value.as_str() {
                    "quick" => ExperimentScale::Quick,
                    "smoke" => ExperimentScale::Smoke,
                    _ => return Err(bad("quick or smoke")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.unwrap_or(match scale {
            ExperimentScale::Smoke => 0,
            _ => QUICK_SECONDS,
        }),
        trace,
        scale,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("layerbench: {err}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let telemetry_dir = out_dir.join(format!("telemetry-{}", std::process::id()));
    let runner = args.workload.runner(args.scale, args.seed);
    print_header(&args, &runner);
    let (correct, attempted, failed, metrics) = if args.trace {
        traced_run(&args, &runner, &telemetry_dir)
    } else {
        untraced_run(&args, &runner)
    };
    // Telemetry files are a by-product of the run, not an output of it.
    let _ = std::fs::remove_dir_all(&telemetry_dir);
    let _ = std::fs::remove_dir(&out_dir);
    for m in &metrics {
        println!("{:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(correct, attempted, failed, &metrics));
    ExitCode::SUCCESS
}

fn print_header(args: &Args, runner: &Runner) {
    let config = cell_config(runner, DramCacheDesign::Banshee, Budget::Full);
    let timed = cell_config(runner, DramCacheDesign::Banshee, Budget::Timing);
    let sources = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    println!(
        "# layerbench workload={} seed={} trace={} seconds={} scale={} cores={} \
         dram_cache_mib={} instructions_per_cell={} (warm-up {} + measured {}) \
         instructions_per_timed_cell={} designs={} sample=1/{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        args.seconds,
        args.scale.name(),
        config.cores,
        args.scale.dram_cache_capacity().as_bytes() >> 20,
        config.warmup_instructions + config.total_instructions,
        config.warmup_instructions,
        config.total_instructions,
        timed.warmup_instructions + timed.total_instructions,
        lineup().len(),
        1u64 << SAMPLE_SHIFT,
    );
    println!(
        "# host cpu={:?} available_parallelism={} commit={} source_fnv={} model_revision={}",
        host::cpu_model(),
        host::available_parallelism(),
        host::commit(),
        host::source_fingerprint(&sources),
        SimConfig::MODEL_REVISION,
    );
}

/// Print every failed check to stderr; return the number of failed cells.
fn report_failures(cells: &[CellRun]) -> usize {
    for cell in cells {
        for failure in &cell.failures {
            eprintln!("layerbench: cell {} failed: {failure}", cell.slug);
        }
    }
    cells.iter().filter(|c| !c.failures.is_empty()).count()
}

/// Count the checked `cells` whose result differs from the checked cell of
/// the same design in `reference`: the simulator is deterministic, so a
/// repeated cell must reproduce its result bit for bit.
fn count_differences(reference: &[CellRun], cells: &[CellRun]) -> usize {
    let mut differ = 0;
    for cell in cells {
        let Some(expected) = reference.iter().find(|c| c.slug == cell.slug) else {
            continue;
        };
        if let (Some(a), Some(b)) = (expected.checked(), cell.checked()) {
            if format!("{a:?}") != format!("{b:?}") {
                eprintln!(
                    "layerbench: cell {} did not reproduce its result",
                    cell.slug
                );
                differ += 1;
            }
        }
    }
    differ
}

/// Timed passes per untraced run, at the least: a best-of needs more than
/// one.
const MIN_TIMED_PASSES: usize = 2;

/// Print one pass's wall, set-up and simulation times, and each cell's.
fn print_pass(label: &str, pass: &Pass) {
    let cell_times: Vec<String> = pass
        .cells
        .iter()
        .map(|c| {
            format!(
                "{:.4}/{:.4}",
                c.setup().as_secs_f64(),
                c.sim().as_secs_f64()
            )
        })
        .collect();
    println!(
        "# {label} wall_s={:.6} setup_s={:.6} sim_s={:.6} cells_setup/sim_s=[{}]",
        pass.wall.as_secs_f64(),
        pass.setup().as_secs_f64(),
        pass.sim().as_secs_f64(),
        cell_times.join(", ")
    );
}

/// One reference pass at the full budget, then timed passes while another
/// one fits the time budget (at least `MIN_TIMED_PASSES`). Every repeated
/// timed cell must reproduce the first timed pass's result exactly.
fn untraced_run(args: &Args, runner: &Runner) -> (bool, usize, usize, Vec<Metric>) {
    let kind = args.workload.kind();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let reference = run_pass(runner, kind, Budget::Full);
    print_pass("reference", &reference);
    let mut failed = report_failures(&reference.cells);
    // Timed passes reuse the freed heap; the reference pass is the
    // footprint.
    let peak_rss_mib = host::peak_rss_mib().unwrap_or(f64::NAN);
    let timed_start = Instant::now();
    let mut timed: Vec<Pass> = Vec::new();
    loop {
        let pass = run_pass(runner, kind, Budget::Timing);
        failed += report_failures(&pass.cells);
        if let Some(first) = timed.first() {
            failed += count_differences(&first.cells, &pass.cells);
        }
        print_pass(&format!("timed {}", timed.len() + 1), &pass);
        timed.push(pass);
        let per_pass = timed_start.elapsed() / timed.len() as u32;
        if timed.len() >= MIN_TIMED_PASSES && start.elapsed() + per_pass > budget {
            break;
        }
    }
    let attempted = reference.cells.len() + timed.iter().map(|p| p.cells.len()).sum::<usize>();
    println!(
        "# timed_passes={} elapsed_s={:.3}",
        timed.len(),
        start.elapsed().as_secs_f64()
    );
    (
        failed == 0,
        attempted,
        failed,
        end_to_end(&reference, &timed, peak_rss_mib),
    )
}

/// One untraced telemetry-off reference pass, one telemetry-on pass, and
/// every lineup cell re-stepped by the traced driver.
fn traced_run(
    args: &Args,
    runner: &Runner,
    telemetry_dir: &Path,
) -> (bool, usize, usize, Vec<Metric>) {
    let kind = args.workload.kind();
    let pass = run_pass(runner, kind, Budget::Full);
    let mut failed = report_failures(&pass.cells);
    let mut attempted = pass.cells.len();

    // The self-profiler's coverage and the recorder's cost, measured on a
    // telemetry-on pass whose results must equal the telemetry-off ones
    // cell for cell.
    let profiled_runner = Runner {
        counters: RunnerCounters::default(),
        ..runner.clone()
    }
    .with_telemetry(telemetry_dir, TelemetryConfig::default());
    let profiled = run_pass(&profiled_runner, kind, Budget::Full);
    attempted += profiled.cells.len();
    failed += report_failures(&profiled.cells) + count_differences(&pass.cells, &profiled.cells);
    let profile_seconds: f64 = profiled_runner
        .counters
        .cell_profiles()
        .iter()
        .map(|p| p.profile.total_seconds)
        .sum();
    let profile_share = profile_seconds / profiled.sim().as_secs_f64();
    let telemetry_overhead = profiled.sim().as_secs_f64() / pass.sim().as_secs_f64();

    let factory = runner.workload(kind);
    let mut traced = Vec::new();
    for cell in &pass.cells {
        let Some(expected) = cell.checked() else {
            continue;
        };
        let t = trace_cell(cell.config.clone(), &factory, expected);
        for m in &t.mismatches {
            eprintln!("layerbench: traced {} does not match: {m}", cell.slug);
        }
        traced.push((cell.slug, t));
    }
    let metrics = per_layer(&TraceInputs {
        pass: &pass,
        traced: &traced,
        profile_attributed_share: profile_share,
        telemetry_overhead,
        cells_attempted: attempted,
        cells_failed: failed,
    });
    let matched = metrics
        .iter()
        .any(|m| m.name == "trace.result_match" && m.value == 1.0);
    // The remainder is what the timed stages leave of the step time; a
    // negative one means the stage times were over-estimated.
    let mut shares_ok = true;
    for m in metrics.iter().filter(|m| m.name.starts_with("share.")) {
        if !(0.0..=1.0).contains(&m.value) {
            eprintln!("layerbench: {} = {} is outside [0, 1]", m.name, m.value);
            shares_ok = false;
        }
    }
    (
        failed == 0 && matched && shares_ok,
        attempted,
        failed,
        metrics,
    )
}
