//! The traced driver: re-steps one cell exactly as `System::step_core`
//! does, but from outside the simulator, calling only the layers' public
//! entry points and timing each call.
//!
//! Every call is counted; only one access in `2^SAMPLE_SHIFT`, chosen by a
//! plain access counter (never the simulation RNG), is timed, because one
//! timed scope costs about as much as a tenth of a simulated access. OS side
//! effects are rare and timed every time. Work nested inside a side effect
//! or a controller epoch is counted but charged to the enclosing scope (or,
//! for epochs, to the remainder), so no nanosecond is counted twice.
//!
//! Clock reads serialise the pipeline, so a timed access runs markedly
//! slower than an untimed one and its scopes cannot simply be extrapolated.
//! [`TracedCell::breakdown`] therefore takes each stage's *share* from the
//! timed accesses (the remainder is the part of a timed access no stage
//! covers) and scales the shares to the cost of the untimed accesses, which
//! is the loop time left over once the timed accesses and the side effects
//! are taken out. Stages plus remainder add up to the traced total.
//!
//! At the end the driver's counters are compared with the untraced
//! [`SimResult`] of the same cell; any difference means the driver no longer
//! does what `System` does, and its layer times are not to be trusted.

use banshee_common::{
    Addr, Cycle, CyclesPerSec, DramKind, LineAddr, PageNum, TrafficStats, XorShiftRng,
    LARGE_PAGE_SIZE, PAGE_SIZE,
};
use banshee_dcache::{DramCacheController, MemRequest, PlanSink, SideEffect};
use banshee_dram::DualDram;
use banshee_memhier::{CacheHierarchy, HitLevel, PageSize, PageTable, TlbEntry};
use banshee_sim::core_model::{CoreModel, Translation};
use banshee_sim::{build_controller, SimConfig, SimResult};
use banshee_workloads::TraceFactory;
use std::time::{Duration, Instant};

/// One access in `2^SAMPLE_SHIFT` is timed.
pub const SAMPLE_SHIFT: u32 = 6;

// The on-chip latencies `System` charges (private to `banshee_sim`); a
// drift shows as `trace.result_match = 0`.
const L2_HIT_PENALTY: Cycle = 2;
const LLC_HIT_PENALTY: Cycle = 8;
const MISS_ISSUE_PENALTY: Cycle = 2;

/// The timed stages of one simulated access. Whatever the loop spends
/// outside them (request construction, epochs, loop overhead) is the
/// explicit remainder, `other`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// `TraceCursor::next_access`.
    Trace,
    /// TLB lookup, page walk (`PageTable::translate_or_map`) and fill.
    Translate,
    /// `CacheHierarchy::access`.
    Sram,
    /// `DramCacheController::access`.
    Controller,
    /// `DramDevice::access` over a plan's operations.
    Dram,
    /// `CoreModel` retire / advance / issue_miss and the laggard scan.
    Core,
    /// Applying the controller's OS side effects.
    SideEffects,
}

impl Stage {
    /// Every stage, in `share.*` order.
    pub const ALL: [Stage; 7] = [
        Stage::Trace,
        Stage::Translate,
        Stage::Sram,
        Stage::Controller,
        Stage::Dram,
        Stage::Core,
        Stage::SideEffects,
    ];

    /// The `share.*` metric suffix.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Trace => "trace",
            Stage::Translate => "translate",
            Stage::Sram => "sram",
            Stage::Controller => "controller",
            Stage::Dram => "dram",
            Stage::Core => "core",
            Stage::SideEffects => "side_effects",
        }
    }
}

/// Calls into one stage and the time of the timed ones.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTime {
    /// Calls (for `Dram`: operations) made outside nested work.
    pub calls: u64,
    /// Nanoseconds spent in the timed calls.
    pub sampled_ns: u64,
}

/// Exact work counters of a traced cell (warm-up plus measured phase).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Instructions executed.
    pub instructions: u64,
    /// Memory accesses stepped.
    pub accesses: u64,
    /// Dirty LLC evictions sent to the controller.
    pub llc_writebacks: u64,
    /// `DramCacheController::access` calls, nested ones included.
    pub controller_requests: u64,
    /// `DramDevice::access` calls, nested ones included.
    pub dram_ops: u64,
}

/// Everything one traced cell measured. Every timed scope has the clock's
/// own cost (an empty scope's median) taken off.
#[derive(Debug, Clone)]
pub struct TracedCell {
    /// Host time in `TraceFactory::build_traces`.
    pub build: Duration,
    /// Host time of the step loop, the result comparison and the teardown,
    /// tracing included: what the runner counts as simulation time.
    pub run_time: Duration,
    /// Mean nanoseconds of an untimed access, side effects excluded.
    pub untimed_ns_per_access: f64,
    /// Per-stage call counts and timed nanoseconds, in [`Stage::ALL`] order.
    pub stages: [StageTime; 7],
    /// Exact counters.
    pub counts: Counts,
    /// Nanoseconds of each timed controller call.
    pub controller_ns: Vec<u64>,
    /// Nanoseconds of each timed loop iteration (scan, step and epoch
    /// check) without its side effects and its inner scopes' clock cost.
    pub step_ns: Vec<u64>,
    /// Where the driver's outcome differs from the untraced result; empty
    /// when it matches.
    pub mismatches: Vec<String>,
}

impl TracedCell {
    /// The timing of one stage.
    pub fn stage(&self, stage: Stage) -> StageTime {
        self.stages[stage as usize]
    }

    /// Nanoseconds per stage over the whole loop, in [`Stage::ALL`] order,
    /// followed by the remainder; they sum to the cell's traced total (see
    /// the module docs).
    pub fn breakdown(&self) -> [f64; 8] {
        let timed: f64 = self.step_ns.iter().map(|&ns| ns as f64).sum();
        let untimed_total = self.untimed_ns_per_access * self.counts.accesses as f64;
        let mut out = [0.0; 8];
        let mut covered = 0.0;
        for stage in Stage::ALL {
            let ns = self.stage(stage).sampled_ns as f64;
            if stage == Stage::SideEffects {
                out[stage as usize] = ns;
            } else if timed > 0.0 {
                covered += ns / timed;
                out[stage as usize] = ns / timed * untimed_total;
            }
        }
        out[7] = (1.0 - covered) * untimed_total;
        out
    }
}

/// Median nanoseconds an empty timed scope measures on this host.
fn clock_overhead_ns() -> u64 {
    let mut samples: Vec<u64> = (0..4001)
        .map(|_| {
            let t0 = Instant::now();
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Counter values at the warm-up boundary (mirrors `System`'s baseline).
#[derive(Default)]
struct Baseline {
    instructions: u64,
    cycles: Cycle,
    traffic: TrafficStats,
    dram_cache_accesses: u64,
    dram_cache_misses: u64,
    llc_misses: u64,
}

/// The machine `System::new` builds, plus the tracing state.
struct Driver {
    config: SimConfig,
    cores: Vec<CoreModel>,
    hierarchy: CacheHierarchy,
    page_table: PageTable,
    controller: Box<dyn DramCacheController>,
    dram: DualDram,
    rng: XorShiftRng,
    next_epoch_at: u64,
    /// Never compared; kept so the DRAM stage does `System`'s bookkeeping.
    planned: TrafficStats,
    sink: PlanSink,
    flush_scratch: Vec<LineAddr>,
    /// What an empty timed scope measures, in nanoseconds.
    clock_ns: u64,
    /// Timed scopes closed so far.
    scopes: u64,
    /// The current access is one of the sampled ones.
    timed: bool,
    /// Inside a side effect or an epoch: count, but charge no stage.
    nested: bool,
    stages: [StageTime; 7],
    counts: Counts,
    controller_ns: Vec<u64>,
}

/// Build and step one cell under `config`, then compare with `expected`,
/// the untraced result of the same cell.
pub fn trace_cell(
    config: SimConfig,
    factory: &dyn TraceFactory,
    expected: &SimResult,
) -> TracedCell {
    let build_start = Instant::now();
    let traces = factory.build_traces(config.cores);
    let build = build_start.elapsed();
    let mut driver = Driver::new(config, traces);
    driver.clock_ns = clock_overhead_ns();
    let warmup = driver.config.warmup_instructions;
    let total = warmup + driver.config.total_instructions;
    let mask = (1u64 << SAMPLE_SHIFT) - 1;
    let side_effects = Stage::SideEffects as usize;
    let mut step_ns = Vec::new();
    let mut timed_raw_ns = 0u64;
    let mut executed = 0u64;
    let mut baseline = None;
    let loop_start = Instant::now();
    while executed < total {
        driver.timed = driver.counts.accesses & mask == 0;
        let t0 = driver.timed.then(Instant::now);
        let scopes_before = driver.scopes;
        let side_effects_before = driver.stages[side_effects].sampled_ns;
        executed += driver.step_laggard();
        if baseline.is_none() && executed >= warmup {
            baseline = Some(driver.baseline());
        }
        if executed >= driver.next_epoch_at {
            driver.next_epoch_at += driver.config.epoch_instructions;
            driver.run_epoch();
        }
        if let Some(t0) = t0 {
            let raw = t0.elapsed().as_nanos() as u64;
            let effects = driver.stages[side_effects].sampled_ns - side_effects_before;
            // Each inner scope put one clock read inside itself (already
            // taken off it) and one outside, here.
            let clock = driver.clock_ns * (1 + 2 * (driver.scopes - scopes_before));
            timed_raw_ns += raw.saturating_sub(effects);
            step_ns.push(raw.saturating_sub(clock + effects));
        }
    }
    let loop_time = loop_start.elapsed();
    let untimed_ns = (loop_time.as_nanos() as u64)
        .saturating_sub(timed_raw_ns + driver.stages[side_effects].sampled_ns);
    let untimed_accesses = driver.counts.accesses - step_ns.len() as u64;
    let untimed_ns_per_access = untimed_ns as f64 / untimed_accesses.max(1) as f64;
    driver.counts.instructions = executed;
    let mismatches = driver.compare(executed, &baseline.unwrap_or_default(), expected);
    let Driver {
        stages,
        counts,
        controller_ns,
        ..
    } = driver;
    TracedCell {
        build,
        run_time: loop_start.elapsed(),
        untimed_ns_per_access,
        stages,
        counts,
        controller_ns,
        step_ns,
        mismatches,
    }
}

impl Driver {
    fn new(config: SimConfig, traces: Vec<Box<dyn banshee_workloads::TraceGenerator>>) -> Self {
        let cores = traces
            .into_iter()
            .enumerate()
            .map(|(id, trace)| {
                CoreModel::new(
                    id,
                    trace,
                    config.tlb_entries,
                    config.mlp_per_core,
                    config.issue_width,
                )
            })
            .collect();
        Driver {
            cores,
            hierarchy: CacheHierarchy::new(config.hierarchy.clone()),
            page_table: PageTable::new(),
            controller: build_controller(&config),
            dram: DualDram::new(config.in_dram.clone(), config.off_dram.clone()),
            rng: XorShiftRng::new(config.seed ^ 0x5151),
            next_epoch_at: config.epoch_instructions,
            planned: TrafficStats::new(),
            sink: PlanSink::new(),
            flush_scratch: Vec::new(),
            clock_ns: 0,
            scopes: 0,
            timed: false,
            nested: false,
            stages: [StageTime::default(); 7],
            counts: Counts::default(),
            controller_ns: Vec::new(),
            config,
        }
    }

    /// Start a scope: a clock read on sampled, non-nested accesses only.
    #[inline]
    fn clock(&self) -> Option<Instant> {
        (self.timed && !self.nested).then(Instant::now)
    }

    /// Close a scope opened by [`Driver::clock`], returning its length.
    #[inline]
    fn charge(&mut self, stage: Stage, t0: Option<Instant>) -> Option<u64> {
        let ns = (t0?.elapsed().as_nanos() as u64).saturating_sub(self.clock_ns);
        self.scopes += 1;
        self.stages[stage as usize].sampled_ns += ns;
        Some(ns)
    }

    /// Count `n` calls into `stage` (outside nested work).
    #[inline]
    fn count(&mut self, stage: Stage, n: u64) {
        if !self.nested {
            self.stages[stage as usize].calls += n;
        }
    }

    fn baseline(&self) -> Baseline {
        let (accesses, misses) = self.controller.demand_stats();
        Baseline {
            instructions: self.cores.iter().map(|c| c.instructions).sum(),
            cycles: self.cores.iter().map(|c| c.clock).max().unwrap_or(0),
            traffic: self.dram.combined_traffic(),
            dram_cache_accesses: accesses,
            dram_cache_misses: misses,
            llc_misses: self.hierarchy.llc_miss_count(),
        }
    }

    fn step_laggard(&mut self) -> u64 {
        let t0 = self.clock();
        let core_id = self
            .cores
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| c.clock)
            .map(|(i, _)| i)
            .expect("at least one core");
        self.charge(Stage::Core, t0);
        self.step_core(core_id)
    }

    fn step_core(&mut self, core_id: usize) -> u64 {
        self.counts.accesses += 1;
        for stage in [Stage::Trace, Stage::Core, Stage::Translate, Stage::Sram] {
            self.count(stage, 1);
        }
        let t0 = self.clock();
        let access = self.cores[core_id].trace.next_access();
        self.charge(Stage::Trace, t0);
        let retired = access.instructions();
        let t0 = self.clock();
        self.cores[core_id].retire_instructions(retired);
        self.charge(Stage::Core, t0);

        let t0 = self.clock();
        let translation = self.translate(core_id, access.vaddr);
        self.charge(Stage::Translate, t0);
        let paddr = translation.paddr;

        let t0 = self.clock();
        let outcome = self.hierarchy.access(core_id, paddr.line(), access.write);
        self.charge(Stage::Sram, t0);
        let t0 = self.clock();
        match outcome.hit {
            Some(HitLevel::L2) => self.cores[core_id].advance(L2_HIT_PENALTY),
            Some(HitLevel::Llc) => self.cores[core_id].advance(LLC_HIT_PENALTY),
            Some(HitLevel::L1) | None => {}
        }
        self.charge(Stage::Core, t0);

        let now = self.cores[core_id].clock;
        for line in &outcome.memory_writebacks {
            self.counts.llc_writebacks += 1;
            let mut req = MemRequest::writeback(line.base_addr(), core_id);
            if self.config.large_pages {
                req = req.on_large_page();
            }
            self.controller_access(&req, now);
            self.execute_plan(core_id, now);
        }

        if outcome.is_llc_miss() {
            let mut req = MemRequest::demand(paddr, core_id).with_hint(translation.info);
            if access.write {
                req = req.as_store();
            }
            if self.config.large_pages {
                req = req.on_large_page();
            }
            let now = self.cores[core_id].clock;
            self.controller_access(&req, now);
            let completion = self.execute_plan(core_id, now);
            let t0 = self.clock();
            self.cores[core_id].advance(MISS_ISSUE_PENALTY);
            self.cores[core_id].issue_miss(completion);
            self.charge(Stage::Core, t0);
        }
        retired
    }

    fn translate(&mut self, core_id: usize, vaddr: Addr) -> Translation {
        let large = self.config.large_pages;
        if let Some(t) = self.cores[core_id].translate(vaddr, large) {
            return t;
        }
        self.cores[core_id].advance(self.config.tlb_miss_latency);
        let vpage = CoreModel::vpage_of(vaddr, large);
        let size = if large {
            PageSize::Large2M
        } else {
            PageSize::Base4K
        };
        let pte = self.page_table.translate_or_map(vpage, size);
        self.cores[core_id].fill_tlb(
            vaddr,
            TlbEntry {
                vpage,
                ppage: pte.ppage,
                info: pte.info,
                size,
            },
        )
    }

    fn controller_access(&mut self, req: &MemRequest, now: Cycle) {
        self.counts.controller_requests += 1;
        self.count(Stage::Controller, 1);
        self.sink.reset();
        let t0 = self.clock();
        self.controller.access(req, now, &mut self.sink);
        if let Some(ns) = self.charge(Stage::Controller, t0) {
            self.controller_ns.push(ns);
        }
    }

    /// `System::execute_plan` on the sequential path.
    fn execute_plan(&mut self, core_id: usize, now: Cycle) -> Cycle {
        let ops = (self.sink.critical.len() + self.sink.background.len()) as u64;
        self.counts.dram_ops += ops;
        self.count(Stage::Dram, ops);
        let t0 = self.clock();
        let mut t = now + self.sink.extra_latency;
        let Driver {
            sink,
            dram,
            planned,
            ..
        } = self;
        for op in &sink.critical {
            let dev = dram.device_mut(op.dram);
            planned.add(
                op.dram,
                op.class,
                dev.config().round_to_min_transfer(op.bytes),
            );
            t = dev.access(t, op.addr, op.bytes, op.class, op.write).finish;
        }
        for op in &sink.background {
            let dev = dram.device_mut(op.dram);
            planned.add(
                op.dram,
                op.class,
                dev.config().round_to_min_transfer(op.bytes),
            );
            dev.access(t, op.addr, op.bytes, op.class, op.write);
        }
        self.charge(Stage::Dram, t0);
        if !self.sink.side_effects.is_empty() {
            let effects = std::mem::take(&mut self.sink.side_effects);
            let outer = !self.nested;
            let t0 = outer.then(Instant::now);
            self.count(Stage::SideEffects, 1);
            self.nested = true;
            self.apply_side_effects(effects, core_id, t);
            self.nested = !outer;
            self.charge(Stage::SideEffects, t0);
        }
        t
    }

    /// `System::apply_side_effects`, without its statistics.
    fn apply_side_effects(&mut self, effects: Vec<SideEffect>, core_id: usize, now: Cycle) {
        let cpu = CyclesPerSec::ghz(2.7);
        for effect in effects {
            match effect {
                SideEffect::OsWork { cycles } => self.cores[core_id].advance(cycles),
                SideEffect::StallAllCores { cycles } => {
                    for c in self.cores.iter_mut() {
                        c.advance(cycles);
                    }
                }
                SideEffect::UpdatePageTable { updates } => {
                    for (unit, info) in updates {
                        let ppage = self.unit_to_ppage(unit);
                        self.page_table.update_mapping(ppage, info);
                    }
                    let victim = self.rng.next_below(self.cores.len() as u64) as usize;
                    let cost = cpu.cycles_in_us(self.config.pte_update_cost_us);
                    self.cores[victim].advance(cost);
                }
                SideEffect::TlbShootdown => {
                    let initiator = self.rng.next_below(self.cores.len() as u64) as usize;
                    let init_cost = cpu.cycles_in_us(self.config.shootdown_initiator_us);
                    let slave_cost = cpu.cycles_in_us(self.config.shootdown_slave_us);
                    for (i, core) in self.cores.iter_mut().enumerate() {
                        core.tlb.shootdown();
                        core.advance(if i == initiator {
                            init_cost
                        } else {
                            slave_cost
                        });
                    }
                }
                SideEffect::FlushPage { page } => {
                    let ppage = self.unit_to_ppage(page);
                    let mut dirty_lines = std::mem::take(&mut self.flush_scratch);
                    dirty_lines.clear();
                    self.hierarchy.flush_page_into(ppage, &mut dirty_lines);
                    for line in &dirty_lines {
                        let req = MemRequest::writeback(line.base_addr(), core_id);
                        self.controller_access(&req, now);
                        self.execute_plan(core_id, now);
                    }
                    self.flush_scratch = dirty_lines;
                }
            }
        }
    }

    fn unit_to_ppage(&self, unit: PageNum) -> PageNum {
        if self.config.large_pages {
            PageNum::new(unit.raw() * (LARGE_PAGE_SIZE / PAGE_SIZE))
        } else {
            unit
        }
    }

    /// `System::run_epoch`; its time falls into the remainder.
    fn run_epoch(&mut self) {
        let outer = !self.nested;
        self.nested = true;
        let now = self.cores.iter().map(|c| c.clock).max().unwrap_or(0);
        self.sink.reset();
        if self.controller.epoch(now, &mut self.sink) {
            let core = self.rng.next_below(self.cores.len() as u64) as usize;
            self.execute_plan(core, now);
        }
        self.nested = !outer;
    }

    /// Differences between the driver's outcome and the untraced result.
    fn compare(&self, executed: u64, base: &Baseline, expected: &SimResult) -> Vec<String> {
        let (accesses, misses) = self.controller.demand_stats();
        let cycles = self.cores.iter().map(|c| c.clock).max().unwrap_or(0);
        let checks = [
            (
                "instructions",
                executed.saturating_sub(base.instructions),
                expected.instructions,
            ),
            (
                "cycles",
                cycles.saturating_sub(base.cycles),
                expected.cycles,
            ),
            (
                "llc_misses",
                self.hierarchy
                    .llc_miss_count()
                    .saturating_sub(base.llc_misses),
                expected.llc_misses,
            ),
            (
                "dram_cache_accesses",
                accesses.saturating_sub(base.dram_cache_accesses),
                expected.dram_cache_accesses,
            ),
            (
                "dram_cache_misses",
                misses.saturating_sub(base.dram_cache_misses),
                expected.dram_cache_misses,
            ),
        ];
        let mut out: Vec<String> = checks
            .iter()
            .filter(|(_, got, want)| got != want)
            .map(|(what, got, want)| format!("{what}: traced {got}, untraced {want}"))
            .collect();
        let traffic = self.dram.combined_traffic().since(&base.traffic);
        for dram in [DramKind::InPackage, DramKind::OffPackage] {
            for (class, got) in traffic.breakdown(dram) {
                let want = expected.traffic.bytes(dram, class);
                if got != want {
                    out.push(format!(
                        "{dram:?} {class:?} bytes: traced {got}, untraced {want}"
                    ));
                }
            }
        }
        out
    }
}
