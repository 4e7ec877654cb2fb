//! Standard-scale throughput record.
//!
//! Every figure-4 design run once at the Standard experiment geometry (16
//! cores, 32 MiB DRAM cache), recording simulated instructions per
//! wall-clock second together with the model revision the numbers belong
//! to. Results are tracked PR-over-PR in `BENCH_standard.json` at the
//! repository root; the CI perf-smoke job gates on it alongside
//! `BENCH_hotpath.json`.
//!
//! ```text
//! cargo bench -p banshee_bench --bench standard
//! ```
//!
//! Environment knobs:
//!
//! * `BANSHEE_STANDARD_INSTRUCTIONS` — measured instructions per run
//!   (default 8,000,000, the Standard scale; warm-up always matches the
//!   measured budget, as Standard experiments do). CI runs smaller.
//! * `BANSHEE_STANDARD_OUT` — output path for the JSON report (default
//!   `BENCH_standard.json` at the workspace root).

use banshee_bench::runner::{ExperimentScale, Runner};
use banshee_dcache::DramCacheDesign;
use banshee_exec::JobPool;
use banshee_sim::{SimConfig, System};
use banshee_workloads::{SpecProgram, WorkloadKind};
use serde::Serialize;
use std::time::Instant;

/// Throughput of one design.
#[derive(Debug, Clone, Serialize)]
struct DesignRow {
    design: String,
    /// Simulated instructions per timed run (warm-up + measured phase).
    instructions: u64,
    /// Wall-clock seconds of the run.
    seconds: f64,
    /// Simulated instructions per wall-clock second.
    instr_per_sec: f64,
}

/// The whole report, written to `BENCH_standard.json`.
#[derive(Debug, Clone, Serialize)]
struct StandardReport {
    /// The simulation model revision these numbers were recorded under.
    model_revision: u32,
    scale: String,
    /// Measured (post-warm-up) instructions per run.
    measured_instructions: u64,
    /// Warm-up instructions per run (equal to the measured budget, as at
    /// Standard scale).
    warmup_instructions: u64,
    /// Workload driven through every design.
    workload: String,
    /// The host's available parallelism when recorded.
    host_threads: usize,
    designs: Vec<DesignRow>,
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Run one configuration to completion, returning wall-clock seconds.
fn timed_run(cfg: SimConfig, runner: &Runner, kind: WorkloadKind) -> f64 {
    let workload = runner.workload(kind);
    let name = workload.name();
    let system = System::new(cfg, &workload);
    let t0 = Instant::now();
    let result = system.run(&name);
    let seconds = t0.elapsed().as_secs_f64();
    assert!(result.instructions > 0, "simulation ran no instructions");
    seconds
}

fn main() {
    let measured = env_u64("BANSHEE_STANDARD_INSTRUCTIONS", 8_000_000);
    let host_threads = JobPool::available_workers();
    let kind = WorkloadKind::Spec(SpecProgram::Mcf);
    let runner = Runner::new(ExperimentScale::Standard);
    let warmup = measured;

    let designs = DramCacheDesign::figure4_lineup();
    let mut rows = Vec::new();
    println!(
        "standard: {measured} measured + {warmup} warm-up instructions per design, workload {}",
        kind.name()
    );
    for design in designs {
        let mut cfg = runner.config(design);
        cfg.total_instructions = measured;
        cfg.warmup_instructions = warmup;

        let seconds = timed_run(cfg, &runner, kind);
        let total = measured + warmup;
        let instr_per_sec = total as f64 / seconds;
        println!(
            "  {:<24} {:>8.3} s ({:>12.0} instr/s)",
            design.label(),
            seconds,
            instr_per_sec
        );
        rows.push(DesignRow {
            design: design.label(),
            instructions: total,
            seconds,
            instr_per_sec,
        });
    }

    let report = StandardReport {
        model_revision: SimConfig::MODEL_REVISION,
        scale: ExperimentScale::Standard.name().to_string(),
        measured_instructions: measured,
        warmup_instructions: warmup,
        workload: kind.name(),
        host_threads,
        designs: rows,
    };
    let out = std::env::var("BANSHEE_STANDARD_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_standard.json").to_string()
    });
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, json + "\n").expect("write BENCH_standard.json");
    println!("wrote {out}");
}
