//! The benchmark's named workloads and the geometry they run at.

use banshee_bench::{ExperimentScale, Runner};
use banshee_dcache::DramCacheDesign;
use banshee_sim::SimConfig;
use banshee_workloads::{SpecProgram, WorkloadKind};

/// Workload seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 42;

/// Seconds one quick-scale run measures when `--seconds` is not given; the
/// `run_seconds` of `BENCHMARK.json`, which the bounds were measured at.
pub const QUICK_SECONDS: u64 = 60;

/// At quick scale, timed cells simulate 1/`TIMING_DIVISOR` of the scale's
/// instructions (warm-up and measured phase alike), so that a run times
/// every design dozens of times. Host speed on a shared machine comes and
/// goes in spells of a fraction of a second to minutes; a design's fastest
/// short cell finds a quiet spell far more reliably than its fastest long
/// one.
pub const TIMING_DIVISOR: u64 = 16;

/// The instruction budget a cell runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// The scale's own budget. The reference pass runs it: its results
    /// give the `sim.*` metrics, and the traced run re-steps its cells.
    /// Short cells start too cold to stand for the paper's claims: at
    /// 1/16 of the quick budget Banshee trails NoCache on lbm.
    Full,
    /// 1/[`TIMING_DIVISOR`] of it at quick scale, all of it at smoke scale:
    /// the timed passes.
    Timing,
}

/// One named benchmark workload (see the crate docs for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchWorkload {
    /// mcf at 4x the DRAM cache: replacement-heavy reads.
    McfThrash,
    /// lbm: streaming with 45% stores.
    LbmWrites,
}

impl BenchWorkload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [BenchWorkload; 2] = [BenchWorkload::McfThrash, BenchWorkload::LbmWrites];

    /// The name passed to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            BenchWorkload::McfThrash => "mcf-thrash",
            BenchWorkload::LbmWrites => "lbm-writes",
        }
    }

    /// Resolve a `--workload` name.
    pub fn parse(name: &str) -> Option<BenchWorkload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The simulator workload behind this benchmark workload.
    pub fn kind(self) -> WorkloadKind {
        match self {
            BenchWorkload::McfThrash => WorkloadKind::Spec(SpecProgram::Mcf),
            BenchWorkload::LbmWrites => WorkloadKind::Spec(SpecProgram::Lbm),
        }
    }

    /// The single-threaded, store-less runner for this workload.
    pub fn runner(self, scale: ExperimentScale, seed: u64) -> Runner {
        let mut runner = Runner::new(scale).with_jobs(1);
        runner.seed = seed;
        runner
    }
}

/// The configuration a cell of `design` runs under: the runner's, with the
/// instruction budget cut by [`TIMING_DIVISOR`] for a quick-scale timed
/// cell.
pub fn cell_config(runner: &Runner, design: DramCacheDesign, budget: Budget) -> SimConfig {
    let mut config = runner.config(design);
    if budget == Budget::Timing && matches!(runner.scale, ExperimentScale::Quick) {
        config.warmup_instructions /= TIMING_DIVISOR;
        config.total_instructions /= TIMING_DIVISOR;
    }
    config
}

/// The lineup every workload runs, with its metric-name slugs.
pub fn lineup() -> Vec<(DramCacheDesign, &'static str)> {
    DramCacheDesign::figure4_lineup()
        .into_iter()
        .map(|d| (d, design_slug(d)))
        .collect()
}

/// Metric-name slug of a lineup design (`alloy01` for Alloy 0.1).
fn design_slug(design: DramCacheDesign) -> &'static str {
    match design {
        DramCacheDesign::NoCache => "nocache",
        DramCacheDesign::Unison => "unison",
        DramCacheDesign::Tdc => "tdc",
        DramCacheDesign::Alloy { fill_probability } if fill_probability >= 1.0 => "alloy1",
        DramCacheDesign::Alloy { .. } => "alloy01",
        DramCacheDesign::Banshee => "banshee",
        DramCacheDesign::CacheOnly => "cacheonly",
        DramCacheDesign::Hma => "hma",
        DramCacheDesign::BansheeLru => "banshee_lru",
        DramCacheDesign::BansheeFbrNoSample => "banshee_fbr_nosample",
    }
}
