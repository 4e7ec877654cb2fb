//! Untraced cells: one lineup design on one workload, run through the
//! public `Runner` batch API, timed by the runner and checked for
//! correctness.

use crate::workload::{cell_config, lineup, Budget};
use banshee_bench::{CellReport, Runner};
use banshee_common::DramKind;
use banshee_dcache::DramCacheDesign;
use banshee_sim::{SimConfig, SimResult};
use banshee_workloads::WorkloadKind;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One executed cell and the outcome of its correctness checks.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// Metric-name slug of the design.
    pub slug: &'static str,
    /// The configuration the cell ran under.
    pub config: SimConfig,
    /// The runner's report (absent only if the batch never reported).
    pub report: Option<CellReport>,
    /// The simulated result (absent when the cell panicked).
    pub result: Option<SimResult>,
    /// Every failed check, in words; empty for a correct cell.
    pub failures: Vec<String>,
}

impl CellRun {
    /// The runner's host time for the whole cell.
    pub fn duration(&self) -> Duration {
        self.report.as_ref().map_or(Duration::ZERO, |r| r.duration)
    }

    /// Host time outside simulation: the runner's cell time minus its pure
    /// simulation time, which covers building the `System`, attaching
    /// telemetry and dropping the `System`.
    pub fn setup(&self) -> Duration {
        self.report.as_ref().map_or(Duration::ZERO, |r| {
            r.duration.saturating_sub(r.sim_duration)
        })
    }

    /// Host time spent simulating (warm-up plus measured phase).
    pub fn sim(&self) -> Duration {
        self.report
            .as_ref()
            .map_or(Duration::ZERO, |r| r.sim_duration)
    }

    /// Instructions simulated (warm-up plus measured phase).
    pub fn instructions(&self) -> u64 {
        self.report.as_ref().map_or(0, |r| r.instructions)
    }

    /// The checked result, or `None` if any check failed.
    pub fn checked(&self) -> Option<&SimResult> {
        if self.failures.is_empty() {
            self.result.as_ref()
        } else {
            None
        }
    }
}

/// Run `designs` on `kind` as one batch, each cell with `budget`. A panicking simulation fails the
/// batch (the runner re-raises it once every cell has finished): it is
/// recorded as failed cells, never as an aborted benchmark.
fn run_cells(
    runner: &Runner,
    designs: &[(DramCacheDesign, &'static str)],
    kind: WorkloadKind,
    budget: Budget,
) -> Vec<CellRun> {
    let configs: Vec<SimConfig> = designs
        .iter()
        .map(|&(d, _)| cell_config(runner, d, budget))
        .collect();
    let reports: Mutex<Vec<Option<CellReport>>> = Mutex::new(vec![None; designs.len()]);
    let batch = catch_unwind(AssertUnwindSafe(|| {
        let cells = configs.iter().map(|c| (c.clone(), kind)).collect();
        runner.run_batch_observed(cells, |r| {
            reports.lock().expect("observer lock poisoned")[r.index] = Some(r.clone());
        })
    }));
    let reports = reports.into_inner().expect("observer lock poisoned");
    let mut results: Vec<Option<SimResult>> = batch
        .map(|r| r.into_iter().map(Some).collect())
        .unwrap_or_default();
    results.resize(designs.len(), None);
    designs
        .iter()
        .zip(configs)
        .zip(reports.into_iter().zip(results))
        .map(|((&(_, slug), config), (report, result))| {
            let failures = check_cell(&config, report.as_ref(), result.as_ref());
            CellRun {
                slug,
                config,
                report,
                result,
                failures,
            }
        })
        .collect()
}

/// One lineup pass: every design once, closed-loop.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Wall-clock time of the whole pass.
    pub wall: Duration,
    /// The cells, in lineup order.
    pub cells: Vec<CellRun>,
}

impl Pass {
    /// Summed set-up time over the pass's cells.
    pub fn setup(&self) -> Duration {
        self.cells.iter().map(CellRun::setup).sum()
    }

    /// Summed simulation time over the pass's cells.
    pub fn sim(&self) -> Duration {
        self.cells.iter().map(CellRun::sim).sum()
    }

    /// The cell of the design with metric slug `slug`.
    pub fn cell(&self, slug: &str) -> Option<&CellRun> {
        self.cells.iter().find(|c| c.slug == slug)
    }
}

/// Run the whole lineup once, as one batch.
pub fn run_pass(runner: &Runner, kind: WorkloadKind, budget: Budget) -> Pass {
    let start = Instant::now();
    let cells = run_cells(runner, &lineup(), kind, budget);
    Pass {
        wall: start.elapsed(),
        cells,
    }
}

/// The per-cell correctness checks: the cell finished, executed its
/// instruction budget, and conserved DRAM traffic on both devices.
pub fn check_cell(
    config: &SimConfig,
    report: Option<&CellReport>,
    result: Option<&SimResult>,
) -> Vec<String> {
    let mut failures = Vec::new();
    let Some(report) = report else {
        return vec!["the runner reported no outcome".to_string()];
    };
    if report.panicked {
        failures.push("the simulation panicked".to_string());
    }
    let Some(result) = result else {
        failures.push("no result".to_string());
        return failures;
    };
    if result.design != config.design.label() {
        failures.push(format!(
            "result is for design {:?}, expected {:?}",
            result.design,
            config.design.label()
        ));
    }
    let budget = config.warmup_instructions + config.total_instructions;
    if report.instructions < budget {
        failures.push(format!(
            "executed {} instructions, budget is {budget}",
            report.instructions
        ));
    }
    if result.instructions == 0 || result.instructions > report.instructions {
        failures.push(format!(
            "measured {} of {} executed instructions",
            result.instructions, report.instructions
        ));
    }
    if result.cycles == 0 {
        failures.push("no cycles elapsed".to_string());
    }
    for (dram, suffix) in [
        (DramKind::InPackage, "in_package"),
        (DramKind::OffPackage, "off_package"),
    ] {
        let stat = |what: &str| result.stats.get(&format!("{what}_{suffix}"));
        let plan = stat("plan_bytes");
        let device = stat("device_bytes");
        let transferred = stat("transferred_bytes");
        let pending = stat("pending_write_bytes");
        let untimed = stat("untimed_bytes");
        if device.checked_sub(untimed) != Some(plan) {
            failures.push(format!(
                "{dram:?}: planned {plan} B != device {device} B - untimed {untimed} B"
            ));
        }
        if transferred + pending + untimed != device {
            failures.push(format!(
                "{dram:?}: device {device} B != transferred {transferred} + pending {pending} + untimed {untimed} B"
            ));
        }
    }
    failures
}
